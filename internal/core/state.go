package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"p3pdb/internal/compact"
	"p3pdb/internal/obs"
	"p3pdb/internal/p3p"
	"p3pdb/internal/p3p/basedata"
	"p3pdb/internal/prefindex"
	"p3pdb/internal/reffile"
	"p3pdb/internal/reldb"
	"p3pdb/internal/shred"
	"p3pdb/internal/xmldom"
	"p3pdb/internal/xmlstore"
	"p3pdb/internal/xqgen"
)

// stateGen issues snapshot generation numbers, unique process-wide and
// monotonic per Site. The generation is the decision cache's snapshot
// identity: entries embed the generation they were computed against, so
// publishing a successor snapshot invalidates every prior entry without
// touching the cache.
var stateGen atomic.Uint64

var (
	obsGenericBuilds = obs.GetCounter("core.generic.builds")
	obsOptFragments  = obs.GetCounter("core.materialize.fragments")
)

// siteState is the immutable interior of a Site: every backend the
// matching engines read, bundled into one snapshot. A state is built
// aside, fully populated, and then published through the Site's atomic
// pointer; after publication it is never mutated, so matches that loaded
// it keep a consistent view for their whole evaluation — installs,
// removes, and bulk replaces swap in a successor state without blocking
// them. This is the same published-snapshot discipline an XML content
// store uses for hot deploys, applied to the paper's three policy
// representations at once.
type siteState struct {
	optDB    *reldb.DB
	optStore *shred.OptimizedStore
	refStore *reffile.Store
	xml      *xmlstore.Store

	refFile *reffile.RefFile

	// policies holds the parsed policies (shared across snapshots — they
	// are not mutated after install), policyXML their rendered documents,
	// ids the policy id used by both relational schemas, and order the
	// install order, which rebuilds preserve so ids stay stable.
	policies  map[string]*p3p.Policy
	policyXML map[string]string
	ids       map[string]int
	order     []string
	// names is the installed policy names, sorted: the order MatchAll
	// and PolicyNames answer in, computed once per snapshot.
	names []string
	// generic holds each policy's generic-schema partition (genericPart),
	// carried from snapshot to snapshot with the policy's artifacts.
	generic map[string]*genericPart
	// nextID continues across snapshots and removals, so a policy id is
	// never reused: a stale id-bound artifact can miss, never alias.
	nextID int

	// compact holds each policy's compact (CP-header) form and the
	// pre-augmented evidence document the fast path evaluates block
	// rules against, both computed once at snapshot publication so the
	// per-request path only reads them.
	compact map[string]*compactSummary

	// prefs is the immutable set of registered preference rulesets plus
	// the predicate index over them (internal/prefindex). Snapshots share
	// the set; registration publishes a successor snapshot holding a
	// copy-on-write successor set.
	prefs *prefindex.Set

	// gen is this snapshot's generation number (stateGen), the decision
	// cache's snapshot identity.
	gen uint64

	// resolvers holds one prebuilt XQuery document resolver per policy,
	// so the native-XQuery match path binds its policy without allocating
	// an alias map and closure per match.
	resolvers map[string]func(string) (*xmldom.Node, error)
}

// policyForURI resolves which policy governs a URI within this snapshot.
func (st *siteState) policyForURI(uri string) (string, error) {
	if st.refFile == nil {
		return "", fmt.Errorf("core: no reference file installed")
	}
	pr := st.refFile.PolicyForURI(uri)
	if pr == nil {
		return "", fmt.Errorf("core: no policy covers %q", uri)
	}
	name := pr.PolicyName()
	if _, ok := st.policyXML[name]; !ok {
		return "", fmt.Errorf("core: reference file names uninstalled policy %q", name)
	}
	return name, nil
}

// policyForCookie resolves which policy governs a cookie by name within
// this snapshot.
func (st *siteState) policyForCookie(cookieName string) (string, error) {
	if st.refFile == nil {
		return "", fmt.Errorf("core: no reference file installed")
	}
	pr := st.refFile.PolicyForCookie(cookieName)
	if pr == nil {
		return "", fmt.Errorf("core: no policy covers cookie %q", cookieName)
	}
	name := pr.PolicyName()
	if _, ok := st.policyXML[name]; !ok {
		return "", fmt.Errorf("core: reference file names uninstalled policy %q", name)
	}
	return name, nil
}

// genericPart is one policy's generic-schema database, the store only
// the XTABLE engine reads; XTABLE's SQL names its policy's id, so a
// match reads no other policy's rows. It is built on the policy's first
// XTABLE use, not at publish — the paper's cold/warm split (§6.3.2) —
// and every snapshot holding the policy under the same id shares it. A
// failed build is not remembered: the next use retries it.
type genericPart struct {
	mu sync.Mutex
	db atomic.Pointer[reldb.DB]
}

// genericDB returns policy's generic-schema database in st, shredding
// the policy into it under its id on first use, then freezing it.
func (s *Site) genericDB(st *siteState, policy string) (*reldb.DB, error) {
	g := st.generic[policy]
	if db := g.db.Load(); db != nil {
		return db, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if db := g.db.Load(); db != nil {
		return db, nil
	}
	db := reldb.NewWithOptions(s.opts.DB)
	store, err := shred.NewGeneric(db)
	if err != nil {
		return nil, err
	}
	if _, err := store.InstallPolicyAt(st.policies[policy], st.ids[policy]); err != nil {
		return nil, err
	}
	db.Freeze()
	obsGenericBuilds.Inc()
	g.db.Store(db)
	return db, nil
}

// compactSummary is one policy's compact-policy material: the CP header
// value, the augmented evidence document derived from it (what the fast
// path evaluates block rules against — see compact.ToEvidence), and the
// reason either is unavailable. A nil evidence disables the fast path
// for the policy; a non-empty cp still serves the header.
type compactSummary struct {
	cp       string
	evidence *xmldom.Node
	err      error
}

// policyArtifacts caches one policy's materialization products across
// snapshot rebuilds. Policies are immutable after parse, so everything
// derived from the policy alone — its optimized-schema fragment,
// augmented DOM, rendered document, and compact summary — is identical
// in every snapshot the policy appears in; rebuilding them per publish
// made each write O(installed policies × shred cost). Keyed by the
// parsed policy pointer in Site.artifacts; the fragment also embeds the
// policy id and is rebuilt if a bulk replace reassigns it. Guarded by
// Site.writeMu: only materialize reads or writes the cache.
type policyArtifacts struct {
	optFrag   *shred.Fragment
	generic   *genericPart // at optFrag's id; replaced with it
	augmented *xmldom.Node
	xmlStr    string
	compact   *compactSummary
	// terms is the policy's witness-term universe for the preference
	// index, derived from the augmented DOM. Computed lazily by the
	// pre-warm pass (under writeMu), so sites with no registered
	// preferences never pay for it.
	terms map[string]struct{}
}

// stateDraft is the mutable sketch a writer edits before the next
// snapshot is materialized. It carries only the logical content (parsed
// policies, ids, the reference file); the physical backends are rebuilt
// from it by materialize.
type stateDraft struct {
	policies map[string]*p3p.Policy
	ids      map[string]int
	order    []string
	refFile  *reffile.RefFile
	nextID   int
	// prefs rides through policy edits untouched (the Set is immutable;
	// registration replaces the pointer with a successor set).
	prefs *prefindex.Set
}

func newDraft() *stateDraft {
	return &stateDraft{
		policies: map[string]*p3p.Policy{},
		ids:      map[string]int{},
		nextID:   1,
		prefs:    prefindex.NewSet(),
	}
}

// draft copies the snapshot's logical content into an editable sketch.
func (st *siteState) draft() *stateDraft {
	d := &stateDraft{
		policies: make(map[string]*p3p.Policy, len(st.policies)),
		ids:      make(map[string]int, len(st.ids)),
		order:    append([]string(nil), st.order...),
		refFile:  st.refFile,
		nextID:   st.nextID,
		prefs:    st.prefs,
	}
	for n, p := range st.policies {
		d.policies[n] = p
	}
	for n, id := range st.ids {
		d.ids[n] = id
	}
	return d
}

func (d *stateDraft) addPolicy(pol *p3p.Policy) error {
	if err := pol.MustValid(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, dup := d.policies[pol.Name]; dup {
		return fmt.Errorf("core: policy %q already installed", pol.Name)
	}
	d.policies[pol.Name] = pol
	d.ids[pol.Name] = d.nextID
	d.nextID++
	d.order = append(d.order, pol.Name)
	return nil
}

func (d *stateDraft) removePolicy(name string) error {
	if _, ok := d.policies[name]; !ok {
		return fmt.Errorf("core: policy %q not installed", name)
	}
	delete(d.policies, name)
	delete(d.ids, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return nil
}

func (d *stateDraft) setRefFile(rf *reffile.RefFile) error {
	for _, pr := range rf.PolicyRefs {
		if _, ok := d.policies[pr.PolicyName()]; !ok {
			return fmt.Errorf("core: reference file names uninstalled policy %q", pr.PolicyName())
		}
	}
	d.refFile = rf
	return nil
}

// materialize builds the successor of prev (nil for a new site) from a
// draft: a new optimized-schema database and XML store, every policy
// shredded under its preserved id, and the reference file mirrored into
// the Figure 16 tables. prev is never touched, so a failure anywhere
// leaves the site exactly as it was (all-or-nothing).
//
// A draft with prev's policies, ids and reference file (a preference
// registration, a no-op replay) shares every backend of prev. Any other
// write costs O(installed policies) fragment installs, paid so reads
// never lock or see half a write; the generic schema is left to each
// policy's first XTABLE use (genericDB).
func (s *Site) materialize(prev *siteState, d *stateDraft) (*siteState, error) {
	if prev != nil && prev.refFile == d.refFile && maps.Equal(prev.policies, d.policies) && maps.Equal(prev.ids, d.ids) {
		next := *prev
		next.nextID, next.prefs, next.gen = d.nextID, d.prefs, stateGen.Add(1)
		return &next, nil
	}
	optDB := reldb.NewWithOptions(s.opts.DB)
	optStore, err := shred.NewOptimized(optDB)
	if err != nil {
		return nil, err
	}
	refStore, err := reffile.NewStore(optDB)
	if err != nil {
		return nil, err
	}
	st := &siteState{
		optDB:     optDB,
		optStore:  optStore,
		refStore:  refStore,
		xml:       xmlstore.New(),
		refFile:   d.refFile,
		policies:  d.policies,
		policyXML: make(map[string]string, len(d.policies)),
		ids:       d.ids,
		order:     d.order,
		names:     slices.Clone(d.order),
		generic:   make(map[string]*genericPart, len(d.policies)),
		nextID:    d.nextID,
		compact:   make(map[string]*compactSummary, len(d.policies)),
		prefs:     d.prefs,
		gen:       stateGen.Add(1),
		resolvers: make(map[string]func(string) (*xmldom.Node, error), len(d.policies)),
	}
	slices.Sort(st.names)
	if s.artifacts == nil {
		s.artifacts = map[*p3p.Policy]*policyArtifacts{}
	}
	for _, name := range d.order {
		pol := d.policies[name]
		id := d.ids[name]
		// Reuse (or build once) everything derived from the policy
		// alone. Parsed policies are immutable and the engines treat
		// published DOM nodes as read-only — concurrent matches already
		// share them within one snapshot — so sharing the augmented DOM
		// and compact evidence across snapshots is safe.
		art := s.artifacts[pol]
		if art == nil {
			dom := pol.ToDOM()
			art = &policyArtifacts{
				augmented: s.native.Augment(dom),
				xmlStr:    dom.String(),
				compact:   s.compactSummaryFor(pol),
			}
			s.artifacts[pol] = art
		}
		if art.optFrag == nil || art.optFrag.PolicyID() != id {
			var err error
			if art.optFrag, err = shred.BuildOptimizedFragment(basedata.Default(), pol, id); err != nil {
				return nil, err
			}
			art.generic = &genericPart{}
		}
		if _, err := optStore.InstallFragment(art.optFrag); err != nil {
			return nil, err
		}
		obsOptFragments.Inc()
		st.xml.PutShared(policyDoc(name), art.augmented)
		st.policyXML[name] = art.xmlStr
		st.resolvers[name] = st.xml.Resolver(map[string]string{
			xqgen.ApplicableDocument: policyDoc(name),
		})
		st.compact[name] = art.compact
		st.generic[name] = art.generic
	}
	if d.refFile != nil {
		// The relational mirror only stores refs that resolve; the
		// in-memory RefFile keeps the full document. A POLICY-REF can
		// dangle after its policy is removed — resolution reports that
		// per lookup, as it always has.
		inst := &reffile.RefFile{}
		for _, pr := range d.refFile.PolicyRefs {
			if _, ok := d.ids[pr.PolicyName()]; ok {
				inst.PolicyRefs = append(inst.PolicyRefs, pr)
			}
		}
		if len(inst.PolicyRefs) > 0 {
			if _, err := refStore.Install(inst, optStore); err != nil {
				return nil, err
			}
		}
	}
	// The snapshot is fully populated and about to be published
	// read-only. Freezing its databases lets every subsequent SELECT
	// skip the shared lock: matching takes no lock at all against a
	// published snapshot, which is what lets throughput scale with
	// cores instead of serializing on one RWMutex cache line.
	optDB.Freeze()
	return st, nil
}

// compactSummaryFor computes a policy's compact form and fast-path
// evidence at snapshot-publication time. Failures are recorded, not
// fatal: a policy whose vocabulary the compact token tables cannot
// express still installs and matches normally — it just has no CP
// header and never takes the fast path.
func (s *Site) compactSummaryFor(pol *p3p.Policy) *compactSummary {
	cs := &compactSummary{}
	cp, err := compact.FromPolicy(pol, nil)
	if err != nil {
		cs.err = err
		return cs
	}
	cs.cp = cp
	sum, err := compact.Parse(cp)
	if err != nil {
		cs.err = err
		return cs
	}
	// Pre-augment the evidence once: the fast path evaluates block rules
	// with augmentation skipped, so per-check cost is rule evaluation
	// alone.
	cs.evidence = s.native.Augment(sum.ToEvidence(pol.Name).ToDOM())
	return cs
}
