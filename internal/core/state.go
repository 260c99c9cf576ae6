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
//
// A snapshot is one map of per-policy entries plus what spans policies:
// the optimized-schema database every entry's fragment is installed
// into, the reference file, and the registered preferences.
type siteState struct {
	optDB   *reldb.DB
	refFile *reffile.RefFile

	// entries holds each installed policy's entry by name; a publish
	// carries an unchanged policy's entry by pointer. order is the install
	// order, which rebuilds preserve so ids stay stable, and names the
	// same names sorted: the order MatchAll and PolicyNames answer in.
	entries map[string]*policyEntry
	order   []string
	names   []string
	// nextID continues across snapshots and removals, so a policy id is
	// never reused: a stale id-bound artifact can miss, never alias.
	nextID int

	// prefs is the immutable set of registered preference rulesets plus
	// the predicate index over them (internal/prefindex). Snapshots share
	// the set; registration publishes a successor snapshot holding a
	// copy-on-write successor set.
	prefs *prefindex.Set

	// gen is this snapshot's generation number (stateGen), the decision
	// cache's snapshot identity.
	gen uint64
}

// policyEntry is one installed policy under one id and everything
// derived from the policy alone, built once when the policy is added and
// shared by every snapshot that holds it. Parsed policies are immutable
// and the engines treat published DOM nodes as read-only, so sharing is
// safe; a policy installed again, or given a new id by a bulk replace,
// gets a new entry.
type policyEntry struct {
	policy *p3p.Policy
	id     int

	// Built by materialize on the first publish that holds the entry
	// (frag == nil until then).
	xml       string       // the rendered document
	augmented *xmldom.Node // the augmented DOM the XQuery engine reads
	compact   *compactSummary
	frag      *shred.Fragment // the optimized-schema rows at id
	// resolve binds document("applicable-policy") to this policy alone:
	// the native-XQuery match path reads a one-document store, with
	// nothing allocated per match.
	resolve func(string) (*xmldom.Node, error)

	// generic is the policy's generic-schema database, the store only the
	// XTABLE engine reads; XTABLE's SQL names the policy's id, so a match
	// reads no other policy's rows. It is built on the entry's first
	// XTABLE use, not at publish — the paper's cold/warm split (§6.3.2) —
	// then frozen. A failed build is not remembered: the next use retries.
	genericMu sync.Mutex
	generic   atomic.Pointer[reldb.DB]

	// terms is the policy's witness-term universe for the preference
	// index, derived from the augmented DOM. Computed lazily by the
	// pre-warm pass (under writeMu), so sites with no registered
	// preferences never pay for it.
	terms map[string]struct{}
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
	if st.entries[name] == nil {
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
	if st.entries[name] == nil {
		return "", fmt.Errorf("core: reference file names uninstalled policy %q", name)
	}
	return name, nil
}

// genericDB returns e's generic-schema database, shredding the policy
// into it under e's id on first use, then freezing it.
func (s *Site) genericDB(e *policyEntry) (*reldb.DB, error) {
	if db := e.generic.Load(); db != nil {
		return db, nil
	}
	e.genericMu.Lock()
	defer e.genericMu.Unlock()
	if db := e.generic.Load(); db != nil {
		return db, nil
	}
	db := reldb.NewWithOptions(s.opts.DB)
	store, err := shred.NewGeneric(db)
	if err != nil {
		return nil, err
	}
	if _, err := store.InstallPolicyAt(e.policy, e.id); err != nil {
		return nil, err
	}
	db.Freeze()
	obsGenericBuilds.Inc()
	e.generic.Store(db)
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

// stateDraft is the mutable sketch a writer edits before the next
// snapshot is materialized. It carries only the logical content (the
// policy entries, the reference file, the preferences); materialize
// builds the entries it added and the backends from it.
type stateDraft struct {
	entries map[string]*policyEntry
	order   []string
	refFile *reffile.RefFile
	nextID  int
	// prefs rides through policy edits untouched (the Set is immutable;
	// registration replaces the pointer with a successor set).
	prefs *prefindex.Set
}

func newDraft() *stateDraft {
	return &stateDraft{
		entries: map[string]*policyEntry{},
		nextID:  1,
		prefs:   prefindex.NewSet(),
	}
}

// draft copies the snapshot's logical content into an editable sketch.
func (st *siteState) draft() *stateDraft {
	return &stateDraft{
		entries: maps.Clone(st.entries),
		order:   slices.Clone(st.order),
		refFile: st.refFile,
		nextID:  st.nextID,
		prefs:   st.prefs,
	}
}

// addPolicy adds pol under the next id as a new, not yet built entry.
func (d *stateDraft) addPolicy(pol *p3p.Policy) error {
	if err := pol.MustValid(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if _, dup := d.entries[pol.Name]; dup {
		return fmt.Errorf("core: policy %q already installed", pol.Name)
	}
	d.entries[pol.Name] = &policyEntry{policy: pol, id: d.nextID}
	d.nextID++
	d.order = append(d.order, pol.Name)
	return nil
}

func (d *stateDraft) removePolicy(name string) error {
	if _, ok := d.entries[name]; !ok {
		return fmt.Errorf("core: policy %q not installed", name)
	}
	delete(d.entries, name)
	d.order = slices.DeleteFunc(d.order, func(n string) bool { return n == name })
	return nil
}

// clearPolicies drops every policy and the reference file (bulk replace
// and restore install their whole set afresh, under new ids).
func (d *stateDraft) clearPolicies() {
	d.entries = map[string]*policyEntry{}
	d.order = nil
	d.refFile = nil
}

func (d *stateDraft) setRefFile(rf *reffile.RefFile) error {
	for _, pr := range rf.PolicyRefs {
		if _, ok := d.entries[pr.PolicyName()]; !ok {
			return fmt.Errorf("core: reference file names uninstalled policy %q", pr.PolicyName())
		}
	}
	d.refFile = rf
	return nil
}

// materialize builds the successor of prev (nil for a new site) from a
// draft. prev is never touched, so a failure anywhere leaves the site
// exactly as it was (all-or-nothing).
//
// A draft holding prev's entries — a preference registration, a no-op
// replay, a reference-file-only write — shares prev's optimized-schema
// database. Any other write builds the entries it added (a policy's
// derived forms are built once, when it joins the site) and installs
// every entry's fragment into a fresh database: O(installed policies)
// row inserts, paid so reads never lock or see half a write. The
// generic schema is left to each entry's first XTABLE use (genericDB).
// The reference file is read in memory (internal/reffile); its Figure 16
// tables are not mirrored into the snapshot.
func (s *Site) materialize(prev *siteState, d *stateDraft) (*siteState, error) {
	if prev != nil && maps.Equal(prev.entries, d.entries) {
		next := *prev
		next.refFile, next.nextID, next.prefs, next.gen = d.refFile, d.nextID, d.prefs, stateGen.Add(1)
		return &next, nil
	}
	optDB := reldb.NewWithOptions(s.opts.DB)
	optStore, err := shred.NewOptimized(optDB)
	if err != nil {
		return nil, err
	}
	for _, name := range d.order {
		e := d.entries[name]
		if e.frag == nil {
			if err := s.build(e); err != nil {
				return nil, err
			}
		}
		if _, err := optStore.InstallFragment(e.frag); err != nil {
			return nil, err
		}
		obsOptFragments.Inc()
	}
	// The snapshot is fully populated and about to be published
	// read-only. Freezing its database lets every subsequent SELECT
	// skip the shared lock: matching takes no lock at all against a
	// published snapshot, which is what lets throughput scale with
	// cores instead of serializing on one RWMutex cache line.
	optDB.Freeze()
	st := &siteState{
		optDB:   optDB,
		refFile: d.refFile,
		entries: d.entries,
		order:   d.order,
		names:   slices.Clone(d.order),
		nextID:  d.nextID,
		prefs:   d.prefs,
		gen:     stateGen.Add(1),
	}
	slices.Sort(st.names)
	return st, nil
}

// build derives a newly added entry's forms from its policy. The entry
// belongs to one draft until that draft publishes, so nothing else can
// see it half built.
func (s *Site) build(e *policyEntry) error {
	frag, err := shred.BuildOptimizedFragment(basedata.Default(), e.policy, e.id)
	if err != nil {
		return err
	}
	dom := e.policy.ToDOM()
	e.xml = dom.String()
	e.augmented = s.native.Augment(dom)
	e.compact = s.compactSummaryFor(e.policy)
	doc := xmlstore.New()
	doc.PutShared(xqgen.ApplicableDocument, e.augmented)
	e.resolve = doc.Resolver(nil)
	e.frag = frag
	return nil
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
