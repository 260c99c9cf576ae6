// Package core is the library's public face: the server-centric P3P
// architecture the paper proposes. A Site owns a web site's privacy
// metadata — its policies shredded into relational tables (both schemas),
// stored natively as augmented XML, and its reference file — and matches
// incoming APPEL preferences against them with any of the paper's four
// engine variants:
//
//   - EngineNative: the client-centric baseline (JRC-style APPEL engine,
//     parsing and augmenting the policy on every match).
//   - EngineSQL: APPEL translated to SQL over the optimized schema
//     (Figure 14/15) and run on the relational engine.
//   - EngineXTable: APPEL translated to XQuery (Figure 17), then to SQL
//     over the generic schema through the XML-view reconstruction layer
//     (the XTABLE path of the experiments).
//   - EngineXQuery: APPEL translated to XQuery and evaluated natively
//     against the XML store (the variation the paper could not test).
//
// Decisions report conversion and query time separately, the split
// Figures 20 and 21 use.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/decision"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reffile"
	"p3pdb/internal/reldb"
	"p3pdb/internal/resource"
	"p3pdb/internal/xquery"
)

// Engine selects the preference-matching implementation.
type Engine int

// The four matching engines of the experiments.
const (
	EngineNative Engine = iota
	EngineSQL
	EngineXTable
	EngineXQuery
)

// String names the engine as the paper's figures do.
func (e Engine) String() string {
	switch e {
	case EngineNative:
		return "APPEL Engine"
	case EngineSQL:
		return "SQL"
	case EngineXTable:
		return "XQuery"
	case EngineXQuery:
		return "XQuery (native store)"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Engines lists all engines in display order.
var Engines = []Engine{EngineNative, EngineSQL, EngineXTable, EngineXQuery}

// ParseEngine resolves an engine from its short command-line name.
func ParseEngine(name string) (Engine, error) {
	switch strings.ToLower(name) {
	case "native", "appel":
		return EngineNative, nil
	case "sql":
		return EngineSQL, nil
	case "xtable", "xquery-sql":
		return EngineXTable, nil
	case "xquery", "xquery-native":
		return EngineXQuery, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want native, sql, xtable, or xquery)", name)
}

// ShortName is the command-line name for the engine.
func (e Engine) ShortName() string {
	switch e {
	case EngineNative:
		return "native"
	case EngineSQL:
		return "sql"
	case EngineXTable:
		return "xtable"
	case EngineXQuery:
		return "xquery"
	}
	return "unknown"
}

// Options configure a Site.
type Options struct {
	// DB passes options to the relational engine (ablations).
	DB reldb.Options
	// SkipAugmentationInNative disables category augmentation in the
	// native engine (the §6.3.2 profiling ablation).
	SkipAugmentationInNative bool
	// DisableConversionCache turns off the per-Site conversion cache,
	// forcing the full parse/translate/prepare pipeline on every match
	// (ablations and the uncached baseline).
	DisableConversionCache bool
	// ConversionCacheSize bounds the conversion cache; zero means the
	// engine default (256 entries).
	ConversionCacheSize int
	// DisableDecisionCache turns off the per-Site decision cache, so
	// every match — repeat or not — runs through an engine. The engines
	// stay the source of truth for ablations, differential tests, and
	// deployments that want per-match step accounting.
	DisableDecisionCache bool
	// DecisionCacheSize bounds the decision cache in slots (rounded up
	// to a power of two); zero means the engine default
	// (decision.DefaultSlots).
	DecisionCacheSize int
	// MatchBudget bounds the work one preference match may perform,
	// counted in evaluator steps (rows visited by the relational
	// engines, nodes walked by the XQuery evaluator, element
	// comparisons in the native engine). One budget spans all of a
	// match's rule evaluations; exceeding it aborts the match with
	// resource.ErrBudgetExceeded. Zero means unlimited. This is the
	// worst-case bound a production deployment needs: an adversarial or
	// merely deep APPEL rule otherwise translates into nested-EXISTS
	// evaluation of unbounded cost on the page-access hot path.
	MatchBudget int64
	// PerPolicyTimeout bounds each per-policy match inside MatchAllCtx;
	// zero means no per-policy deadline beyond the batch context's.
	PerPolicyTimeout time.Duration
}

// Decision is the outcome of matching a preference against a policy.
type Decision struct {
	// Behavior is the fired rule's behavior: request, limited, or block.
	Behavior string
	// RuleIndex is the zero-based index of the rule that fired.
	RuleIndex int
	// RuleDescription is the fired rule's description attribute.
	RuleDescription string
	// Prompt mirrors the fired rule's prompt attribute.
	Prompt bool
	// PolicyName names the policy that was matched.
	PolicyName string
	// Engine is the implementation that produced the decision.
	Engine Engine
	// Convert is the time spent translating the preference (parsing the
	// APPEL document and generating SQL/XQuery). Zero conversion happens
	// for the native engine, which interprets APPEL directly.
	Convert time.Duration
	// Query is the time spent evaluating the translated (or native)
	// preference against the policy.
	Query time.Duration
	// Cached reports that the decision was served from the decision
	// cache: the engines never ran, and Convert and Query are zero.
	Cached bool
}

// Blocked reports whether the site should withhold the page.
func (d Decision) Blocked() bool { return d.Behavior == "block" }

// ConflictStat is one row of the site-owner analytics the server-centric
// architecture enables (Section 4.2): how often a given preference rule
// blocked a given policy.
type ConflictStat struct {
	PolicyName      string
	RuleDescription string
	Count           int
}

// Site is a web site's installed privacy metadata plus the matching
// engines.
//
// Concurrency: the installed metadata lives in an immutable siteState
// published through an atomic pointer. Matches load the pointer once and
// run lock-free against that snapshot; installs, removes, and bulk
// replaces build the successor state aside (state.go) and swap it in,
// so hot policy reload never blocks the read path. The conflict
// analytics — which matches write to — live under their own mutex, and
// the conversion cache synchronizes itself and survives swaps.
type Site struct {
	state   atomic.Pointer[siteState]
	writeMu sync.Mutex

	// opts is retained to construct each snapshot's backends with the
	// same engine options.
	opts   Options
	native *appelengine.Engine

	// conv caches conversion artifacts per (engine, preference text);
	// nil when Options.DisableConversionCache is set.
	conv *convCache

	// decisions caches whole match outcomes per (preference, policy,
	// engine, snapshot generation); nil when
	// Options.DisableDecisionCache is set. A hit skips the engines
	// entirely; the generation key invalidates every entry the moment a
	// policy write publishes a new snapshot.
	decisions *decision.Cache

	// matchBudget and perPolicyTimeout are the resource-governance
	// knobs from Options, immutable after construction.
	matchBudget      int64
	perPolicyTimeout time.Duration

	// decForcedMisses counts this Site's decision-cache lookups skipped
	// by an armed decision.lookup fault. Kept apart from the cache's own
	// miss counter so the warm-rate metric only reflects natural misses.
	decForcedMisses atomic.Int64

	// prewarmMu guards the pre-warm tallies (prewarm.go); writes happen
	// under writeMu, reads come from metrics handlers.
	prewarmMu   sync.Mutex
	prewarmCum  PrewarmStats
	prewarmLast PrewarmStats

	// conflicts is the site-owner analytics tally (policy -> rule
	// description -> blocks), sharded by policy so that a worst-case
	// all-blocking workload does not serialize the otherwise lock-free
	// read path on one analytics mutex.
	conflicts [conflictShards]conflictShard
}

// conflictShards spreads the analytics tally; blocks on distinct
// policies land on distinct mutexes.
const conflictShards = 8

type conflictShard struct {
	mu sync.Mutex
	m  map[string]map[string]int
}

func conflictShardFor(policy string) int {
	h := fnv.New32a()
	h.Write([]byte(policy))
	return int(h.Sum32() % conflictShards)
}

// NewSite returns an empty site with default options.
func NewSite() (*Site, error) { return NewSiteWithOptions(Options{}) }

// NewSiteWithOptions returns an empty site.
func NewSiteWithOptions(opts Options) (*Site, error) {
	s := &Site{
		opts:             opts,
		native:           appelengine.NewWithOptions(appelengine.Options{SkipAugmentation: opts.SkipAugmentationInNative}),
		matchBudget:      opts.MatchBudget,
		perPolicyTimeout: opts.PerPolicyTimeout,
	}
	for i := range s.conflicts {
		s.conflicts[i].m = map[string]map[string]int{}
	}
	if !opts.DisableConversionCache {
		s.conv = newConvCache(opts.ConversionCacheSize)
	}
	if !opts.DisableDecisionCache {
		s.decisions = decision.New(opts.DecisionCacheSize)
	}
	st, err := s.materialize(nil, newDraft())
	if err != nil {
		return nil, err
	}
	s.state.Store(st)
	return s, nil
}

// InstallPolicy installs one parsed policy into every backend: shredded
// into both relational schemas (with install-time augmentation), stored as
// augmented XML in the native store, and kept as raw text for the
// client-centric baseline. This is the Figure 5 step, performed as a
// snapshot swap: in-flight matches keep the previous state.
func (s *Site) InstallPolicy(pol *p3p.Policy) error {
	return s.ApplyBatch([]Mutation{InstallPolicyMutation(pol)})
}

// InstallPolicyXML parses a policy document (POLICY or POLICIES) and
// installs every policy in it, returning their names. The install is
// all-or-nothing: a failure anywhere in the document leaves the site
// state untouched, because the new snapshot is only published after
// every policy installed cleanly.
func (s *Site) InstallPolicyXML(doc string) ([]string, error) {
	pols, err := p3p.ParsePolicies(doc)
	if err != nil {
		return nil, err
	}
	if err := s.ApplyBatch([]Mutation{InstallPoliciesMutation(pols)}); err != nil {
		return nil, err
	}
	names := make([]string, len(pols))
	for i, pol := range pols {
		names[i] = pol.Name
	}
	return names, nil
}

// RemovePolicy removes a policy version from every backend, enabling the
// policy versioning the paper lists among the architecture's advantages.
func (s *Site) RemovePolicy(name string) error {
	// The mutation carries a conversion-cache purge for this policy:
	// cached XTABLE translations embed its id, and a reinstall under the
	// same name must not serve stale queries. (Ids are never reused, and
	// xtable cache hits re-validate the id, so this is hygiene rather
	// than a correctness requirement.)
	return s.ApplyBatch([]Mutation{RemovePolicyMutation(name)})
}

// ReplacePolicies atomically replaces the site's entire installed policy
// set — and its reference file — in one snapshot swap: the hot-reload
// primitive a multi-tenant host uses when a site's deployed policy
// directory changes. Matches running during the call complete against
// the old set; matches starting after it see only the new set. A nil rf
// leaves the site without a reference file. On any failure the previous
// state is kept in full.
func (s *Site) ReplacePolicies(pols []*p3p.Policy, rf *reffile.RefFile) error {
	// The mutation purges every id-bound XTABLE entry after the publish:
	// each policy id was reassigned. Policy-independent entries stay.
	return s.ApplyBatch([]Mutation{ReplacePoliciesMutation(pols, rf)})
}

// InstallReferenceFile installs the site's reference file, resolving every
// POLICY-REF against the installed policies.
func (s *Site) InstallReferenceFile(rf *reffile.RefFile) error {
	return s.ApplyBatch([]Mutation{InstallReferenceFileMutation(rf)})
}

// InstallReferenceFileXML parses and installs a reference file document.
func (s *Site) InstallReferenceFileXML(doc string) error {
	rf, err := reffile.Parse(doc)
	if err != nil {
		return err
	}
	return s.InstallReferenceFile(rf)
}

// PolicyNames returns the installed policy names, sorted.
func (s *Site) PolicyNames() []string {
	return slices.Clone(s.state.Load().names)
}

// PolicyXML returns the raw text of an installed policy (what a
// client-centric agent would fetch).
func (s *Site) PolicyXML(name string) (string, error) {
	e := s.state.Load().entries[name]
	if e == nil {
		return "", fmt.Errorf("core: policy %q not installed", name)
	}
	return e.xml, nil
}

// CompactPolicy returns the compact (CP-header) form of an installed
// policy, the token summary IE6-era agents evaluated for cookie decisions
// (Section 3.2 of the paper).
// The form is computed once, when the policy joins the site (state.go),
// and kept on its entry, so serving the P3P header is a map read, not a
// per-request conversion.
func (s *Site) CompactPolicy(name string) (string, error) {
	e := s.state.Load().entries[name]
	if e == nil {
		return "", fmt.Errorf("core: policy %q not installed", name)
	}
	cs := e.compact
	if cs.cp == "" && cs.err != nil {
		return "", cs.err
	}
	return cs.cp, nil
}

// ReferenceFileXML returns the installed reference file document, which
// the hybrid architecture's clients cache so that URI resolution happens
// client-side while matching stays on the server (Section 4.2).
func (s *Site) ReferenceFileXML() (string, error) {
	st := s.state.Load()
	if st.refFile == nil {
		return "", fmt.Errorf("core: no reference file installed")
	}
	return st.refFile.String(), nil
}

// StateExport is a consistent copy of a site's installed documents —
// every policy's rendered XML in install order plus the reference file —
// read from one snapshot. The durability layer checkpoints it and
// rebuilds sites from it; install order is preserved so a recovered
// site assigns policy ids in the same sequence.
type StateExport struct {
	// Order lists policy names in install order.
	Order []string
	// PolicyXML maps each installed policy name to its document.
	PolicyXML map[string]string
	// ReferenceXML is the reference-file document, empty when none is
	// installed.
	ReferenceXML string
	// Prefs lists the registered preference rulesets in registration
	// order; restores rebuild the preference index from them.
	Prefs []PrefExport
}

// PrefExport is one registered preference in an export: its name, the
// verbatim APPEL document, and the engines it pre-warms under.
type PrefExport struct {
	Name    string
	XML     string
	Engines []string
}

// ExportState captures the site's current logical state from a single
// snapshot load: policies and reference file are mutually consistent
// even under concurrent writers.
func (s *Site) ExportState() StateExport {
	st := s.state.Load()
	exp := StateExport{
		Order:     append([]string(nil), st.order...),
		PolicyXML: make(map[string]string, len(st.entries)),
	}
	for n, e := range st.entries {
		exp.PolicyXML[n] = e.xml
	}
	if st.refFile != nil {
		exp.ReferenceXML = st.refFile.String()
	}
	for _, p := range st.prefs.Prefs() {
		exp.Prefs = append(exp.Prefs, PrefExport{
			Name: p.Name, XML: p.XML, Engines: append([]string(nil), p.Engines...),
		})
	}
	return exp
}

// RestoreState rebuilds the site's entire state from an export captured
// by ExportState, in one all-or-nothing snapshot swap. Unlike
// ReplacePolicies it does not re-validate the reference file against the
// policy set: RemovePolicy legitimately leaves POLICY-REFs dangling
// (resolution reports them per lookup), so any state ExportState could
// observe must restore verbatim — the durability layer's checkpoints and
// rollbacks depend on that.
func (s *Site) RestoreState(exp StateExport) error {
	m, err := RestoreStateMutation(exp)
	if err != nil {
		return err
	}
	// The mutation purges every id-bound conversion-cache entry, as in
	// ReplacePolicies.
	return s.ApplyBatch([]Mutation{m})
}

// DB exposes the optimized-schema database of the current snapshot for
// inspection and the analytics example: the Figure 14 tables of every
// installed policy, nothing else — the reference file's Figure 16 tables
// live in internal/reffile. The returned database is frozen: later
// policy writes publish a new snapshot with a new database rather than
// mutating this one.
func (s *Site) DB() *reldb.DB { return s.state.Load().optDB }

// PolicyForURI resolves which policy governs a URI, via the reference
// file.
func (s *Site) PolicyForURI(uri string) (string, error) {
	return s.state.Load().policyForURI(uri)
}

// PolicyForCookie resolves which policy governs a cookie by name, via the
// reference file's COOKIE-INCLUDE/COOKIE-EXCLUDE patterns.
func (s *Site) PolicyForCookie(cookieName string) (string, error) {
	return s.state.Load().policyForCookie(cookieName)
}

// MatchPolicy matches a preference directly against a named policy,
// using the selected engine. With PolicyForURI or PolicyForCookie in
// front it is the Figure 6 step.
func (s *Site) MatchPolicy(prefXML, policyName string, engine Engine) (Decision, error) {
	return s.MatchPolicyCtx(context.Background(), prefXML, policyName, engine)
}

// MatchPolicyCtx is MatchPolicy governed by a context: cancellation or
// deadline expiry aborts evaluation with a resource.ErrCanceled-wrapping
// error, and the Site's match budget (Options.MatchBudget) aborts
// runaway preferences with resource.ErrBudgetExceeded.
func (s *Site) MatchPolicyCtx(ctx context.Context, prefXML, policyName string, engine Engine) (Decision, error) {
	return s.matchPolicyState(ctx, s.state.Load(), prefXML, policyName, engine)
}

// matchPolicyState is MatchPolicyCtx against a caller-chosen snapshot,
// so a batch (MatchAllCtx) evaluates every policy against the same one.
func (s *Site) matchPolicyState(ctx context.Context, st *siteState, prefXML, policyName string, engine Engine) (Decision, error) {
	if st.entries[policyName] == nil {
		return Decision{}, fmt.Errorf("core: policy %q not installed", policyName)
	}
	return s.match(ctx, st, prefXML, policyName, engine)
}

// engineObs is one engine's observability instrument set, resolved once
// at init so match only touches atomics.
type engineObs struct {
	total   *obs.Counter   // matches attempted
	errs    *obs.Counter   // matches that returned an error
	steps   *obs.Counter   // evaluator steps charged (governed matches)
	latency *obs.Histogram // whole-match wall time, µs
	convert *obs.Histogram // translation time, µs (successful matches)
	query   *obs.Histogram // evaluation time, µs (successful matches)
}

// matchObs holds per-engine instruments, indexed by Engine. The names
// ("core.match.sql.total", ...) are the reconciliation anchor: the
// per-engine totals must add up to the server's request counts, which
// the metrics invariant tests assert.
var matchObs = func() [4]engineObs {
	var a [4]engineObs
	for _, e := range Engines {
		n := "core.match." + e.ShortName()
		a[e] = engineObs{
			total:   obs.GetCounter(n + ".total"),
			errs:    obs.GetCounter(n + ".errors"),
			steps:   obs.GetCounter(n + ".steps"),
			latency: obs.GetHistogram(n + ".latency_us"),
			convert: obs.GetHistogram(n + ".convert_us"),
			query:   obs.GetHistogram(n + ".query_us"),
		}
	}
	return a
}()

// obsDecForcedMiss counts decision-cache lookups skipped by an armed
// decision.lookup fault (the forced-miss drill).
var obsDecForcedMiss = obs.GetCounter("decision.forced_misses")

// decisionLookup probes the decision cache for a completed match against
// this exact snapshot. On a hit it performs the same per-engine
// observability accounting as an engine match — totals and latency move,
// convert and query record zero — so the metrics reconciliation
// invariants hold whether or not the engines ran. An armed
// decision.lookup fault forces a miss instead of failing the match,
// proving the engine fallback stays correct when the cache degrades.
func (s *Site) decisionLookup(ctx context.Context, st *siteState, prefXML, policyName string, engine Engine) (Decision, bool) {
	if s.decisions == nil {
		return Decision{}, false
	}
	if err := faultkit.Inject(faultkit.PointDecisionLookup); err != nil {
		obsDecForcedMiss.Inc()
		s.decForcedMisses.Add(1)
		return Decision{}, false
	}
	start := time.Now()
	out, ok := s.decisions.Get(decision.Key{
		Gen: st.gen, Engine: uint8(engine), Policy: policyName, Pref: prefXML,
	})
	if !ok {
		return Decision{}, false
	}
	d := Decision{
		Behavior:        out.Behavior,
		RuleIndex:       out.RuleIndex,
		RuleDescription: out.RuleDescription,
		Prompt:          out.Prompt,
		PolicyName:      policyName,
		Engine:          engine,
		Cached:          true,
	}
	io := &matchObs[engine]
	io.total.Inc()
	io.latency.ObserveDuration(time.Since(start))
	io.convert.Observe(0)
	io.query.Observe(0)
	span := obs.SpanFromContext(ctx)
	span.Annotate("engine", engine.ShortName())
	span.Annotate("policy", policyName)
	span.Annotate("decision_cache", "hit")
	s.recordConflict(d)
	return d, true
}

// decisionStore publishes a successful engine decision for future
// lookups against the same snapshot.
func (s *Site) decisionStore(st *siteState, prefXML, policyName string, engine Engine, d Decision) {
	if s.decisions == nil {
		return
	}
	s.decisions.Put(decision.Key{
		Gen: st.gen, Engine: uint8(engine), Policy: policyName, Pref: prefXML,
	}, d.outcome())
}

// outcome is the part of a decision the decision cache keeps.
func (d Decision) outcome() decision.Outcome {
	return decision.Outcome{
		Behavior:        d.Behavior,
		RuleIndex:       d.RuleIndex,
		RuleDescription: d.RuleDescription,
		Prompt:          d.Prompt,
	}
}

// DecisionCacheStats reports the Site's decision-cache hit/miss/store
// counters and current live-entry count. All zeros when the cache is
// disabled.
func (s *Site) DecisionCacheStats() (hits, misses, stores int64, size int) {
	if s.decisions == nil {
		return 0, 0, 0, 0
	}
	hits, misses, stores = s.decisions.Stats()
	return hits, misses, stores, s.decisions.Len()
}

// DecisionCacheDetail is the honest breakdown of the Site's
// decision-cache traffic: Misses counts only natural misses (a lookup
// that probed the cache and found nothing), ForcedMisses the lookups an
// armed decision.lookup fault skipped, and Preseeds the entries the
// pre-warm pass stored ahead of a snapshot swap. Warm-rate metrics must
// use Misses, not Misses+ForcedMisses — a drill that forces misses would
// otherwise slander the pre-warm pass.
type DecisionCacheDetail struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	ForcedMisses int64 `json:"forcedMisses"`
	Stores       int64 `json:"stores"`
	Preseeds     int64 `json:"preseeds"`
	Size         int   `json:"size"`
}

// DecisionCacheDetail reports the decision-cache breakdown; zero when
// the cache is disabled.
func (s *Site) DecisionCacheDetail() DecisionCacheDetail {
	if s.decisions == nil {
		return DecisionCacheDetail{}
	}
	hits, misses, stores := s.decisions.Stats()
	return DecisionCacheDetail{
		Hits:         hits,
		Misses:       misses,
		ForcedMisses: s.decForcedMisses.Load(),
		Stores:       stores,
		Preseeds:     s.decisions.Preseeds(),
		Size:         s.decisions.Len(),
	}
}

// match runs one preference match against one snapshot. This is the hot
// path: it acquires no site-level lock — everything it reads hangs off
// the immutable st. Repeat matches are answered by the decision cache
// without touching an engine; only the first occurrence of a
// (preference, policy, engine) triple per snapshot pays for evaluation.
func (s *Site) match(ctx context.Context, st *siteState, prefXML, policyName string, engine Engine) (Decision, error) {
	if d, ok := s.decisionLookup(ctx, st, prefXML, policyName, engine); ok {
		return d, nil
	}
	if uint(engine) >= uint(len(matchObs)) {
		return Decision{}, fmt.Errorf("core: unknown engine %d", engine)
	}
	// One meter spans all of this match's rule evaluations, whatever the
	// engine, so the budget bounds the whole preference rather than one
	// statement. Nil (free) when there is neither a budget nor a
	// cancellable context.
	m := resource.NewMeter(ctx, s.matchBudget)
	start := time.Now()
	var d Decision
	conv, err := s.conversion(prefXML)
	if err == nil {
		parse := time.Since(start)
		d, err = s.evaluate(ctx, st, conv, policyName, engine, nil, m)
		// Parsing the preference is the first step of its translation;
		// the native engine interprets APPEL directly and charges it to
		// Query instead.
		if engine == EngineNative {
			d.Query += parse
		} else {
			d.Convert += parse
		}
	}
	io := &matchObs[engine]
	io.total.Inc()
	io.steps.Add(m.Steps())
	io.latency.ObserveDuration(time.Since(start))
	// Annotate the request span (if the caller started one): all Span
	// methods are nil-safe, so unobserved matches pay nothing here.
	span := obs.SpanFromContext(ctx)
	span.Annotate("engine", engine.ShortName())
	span.Annotate("policy", policyName)
	span.AddSteps(m.Steps())
	if err != nil {
		io.errs.Inc()
		return Decision{}, err
	}
	io.convert.ObserveDuration(d.Convert)
	io.query.ObserveDuration(d.Query)
	d.PolicyName = policyName
	d.Engine = engine
	s.recordConflict(d)
	s.decisionStore(st, prefXML, policyName, engine, d)
	return d, nil
}

// evaluate decides one preference against one policy of st: the paper's
// first-match loop (§5, Figures 15/17) shared by organic matches and
// pre-warm. The engine's translation is read from conv (and built into
// it on first use); the rules are then tried in order, and the first
// that fires gives the decision. The engines differ only in how one
// rule is tested — an SQL EXISTS over the optimized schema with the
// policy id as parameter, a view-reconstructed EXISTS over the generic
// schema, or an XQuery run against the native store — so the decision
// fields come from the ruleset itself for every engine.
//
// A non-nil mask switches rules off (pre-warm passes the rules the
// preference index proved cannot fire). The native engine interprets the
// whole (masked) ruleset in one call, parsing and augmenting the policy
// per match — the baseline's defining cost, kept faithful to the paper —
// and its rule index is remapped onto the full ruleset.
//
// Decision.Convert covers fetching (or building) the translation and
// Query the rule loop; the native engine translates nothing.
func (s *Site) evaluate(ctx context.Context, st *siteState, conv *prefConv, policy string, engine Engine, mask []bool, m *resource.Meter) (Decision, error) {
	rules := conv.rs.Rules
	if len(mask) != len(rules) {
		// Index and conversion parse the same document, so this cannot
		// happen; if it did, evaluating every rule is still sound.
		mask = nil
	}
	e := st.entries[policy]
	start := time.Now()
	if engine == EngineNative {
		rs, remap := conv.rs, []int(nil)
		if mask != nil {
			rs = &appel.Ruleset{}
			for i, on := range mask {
				if on {
					rs.Rules = append(rs.Rules, rules[i])
					remap = append(remap, i)
				}
			}
		}
		dec, err := s.native.MatchMeter(rs, e.xml, m)
		if err != nil {
			return Decision{}, err
		}
		i := dec.RuleIndex
		if remap != nil {
			i = remap[i]
		}
		return firedRule(rules[i], i, 0, time.Since(start)), nil
	}

	var (
		db      *reldb.DB
		stmts   []reldb.Statement
		params  []reldb.Value
		ev      *xquery.Evaluator
		queries []*xquery.Query
		err     error
	)
	switch engine {
	case EngineSQL:
		db, params = st.optDB, []reldb.Value{reldb.Int(int64(e.id))}
		stmts, err = s.sqlConversion(conv)
	case EngineXTable:
		if db, err = s.genericDB(e); err == nil {
			stmts, err = s.xtableConversion(e, db, conv)
		}
	case EngineXQuery:
		// The entry's resolver was built with it, so binding the policy
		// allocates nothing.
		ev = xquery.NewEvaluator(e.resolve).WithMeter(m)
		queries, err = s.xqueryConversion(conv)
	default:
		return Decision{}, fmt.Errorf("core: unknown engine %d", engine)
	}
	if err != nil {
		return Decision{}, err
	}
	convert := time.Since(start)

	// The meter rides the context into the relational engine, so one
	// budget spans every rule statement.
	ctx = resource.WithMeter(ctx, m)
	queryStart := time.Now()
	for i, r := range rules {
		if mask != nil && !mask[i] {
			continue
		}
		var fired bool
		if ev != nil {
			var out string
			out, err = ev.Run(queries[i])
			fired = out != ""
		} else {
			fired, err = db.QueryExistsStmtCtx(ctx, stmts[i], params...)
		}
		if err != nil {
			return Decision{}, fmt.Errorf("core: rule %d: %w", i+1, err)
		}
		if fired {
			return firedRule(r, i, convert, time.Since(queryStart)), nil
		}
	}
	return Decision{}, appelengine.ErrNoRuleFired
}

// firedRule is the decision rule i of a ruleset gives when it fires.
func firedRule(r *appel.Rule, i int, convert, query time.Duration) Decision {
	return Decision{
		Behavior:        r.Behavior,
		RuleIndex:       i,
		RuleDescription: r.Description,
		Prompt:          r.Prompt,
		Convert:         convert,
		Query:           query,
	}
}

// recordConflict feeds the site-owner analytics: block decisions are
// tallied per policy and rule. The tally is sharded by policy, so
// concurrent blocked matches on distinct policies take distinct mutexes
// and the lock-free read path stays parallel even when every decision
// blocks.
func (s *Site) recordConflict(d Decision) {
	if !d.Blocked() {
		return
	}
	sh := &s.conflicts[conflictShardFor(d.PolicyName)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.m[d.PolicyName]
	if !ok {
		m = map[string]int{}
		sh.m[d.PolicyName] = m
	}
	desc := d.RuleDescription
	if desc == "" {
		desc = fmt.Sprintf("rule %d", d.RuleIndex+1)
	}
	m[desc]++
}

// Analytics returns the conflict statistics, most-blocked first: which
// policies conflict with which user preference rules — the information the
// client-centric architecture cannot give site owners (Section 4.2).
func (s *Site) Analytics() []ConflictStat {
	var out []ConflictStat
	for i := range s.conflicts {
		sh := &s.conflicts[i]
		sh.mu.Lock()
		for pol, rules := range sh.m {
			for desc, n := range rules {
				out = append(out, ConflictStat{PolicyName: pol, RuleDescription: desc, Count: n})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].PolicyName != out[j].PolicyName {
			return out[i].PolicyName < out[j].PolicyName
		}
		return out[i].RuleDescription < out[j].RuleDescription
	})
	return out
}

// ResetAnalytics clears the conflict statistics.
func (s *Site) ResetAnalytics() {
	for i := range s.conflicts {
		sh := &s.conflicts[i]
		sh.mu.Lock()
		sh.m = map[string]map[string]int{}
		sh.mu.Unlock()
	}
}
