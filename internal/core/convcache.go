package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p3pdb/internal/appel"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/reldb"
	"p3pdb/internal/sqlgen"
	"p3pdb/internal/xqgen"
	"p3pdb/internal/xquery"
	"p3pdb/internal/xtable"
)

// The conversion cache realizes the paper's §6.3.2 "compiled preferences"
// deployment transparently: the first time a preference text is seen it
// is parsed once, each engine's translation of it is built the first time
// that engine runs it, and the artifacts are kept, so a returning user's
// visit pays only query execution. Figures 20/21 attribute the bulk of SQL
// matching time to conversion, which is exactly what a hit removes.
//
// An entry is keyed by preference text — the schema is fixed per Site —
// and serves the fast path and every engine. The XTABLE path alone also
// keeps one entry per (preference text, policy name), because its
// view-reconstruction SQL embeds the policy id. Preference entries
// survive policy churn; policy-bound entries are purged when their policy
// is removed.

// convKey identifies one cached conversion.
type convKey struct {
	pref   string
	policy string // empty for the preference's own entry
}

// defaultConvCacheSize bounds the cache when Options leave it unset.
const defaultConvCacheSize = 256

// Conversion-cache observability (obs registry, DESIGN.md §8). Hits and
// misses count lookups of a preference text, so a miss is exactly one
// APPEL parse; entries is a gauge moved by put/evict/purge deltas, so it
// totals live entries across every Site in the process.
var (
	obsConvHits    = obs.GetCounter("core.convcache.hits")
	obsConvMisses  = obs.GetCounter("core.convcache.misses")
	obsConvEntries = obs.GetGauge("core.convcache.entries")
)

// maxConvShards caps the shard count: past ~16 ways the contention win
// flattens while the fixed per-shard overhead keeps growing.
const maxConvShards = 16

// convCache is a bounded FIFO cache of conversion artifacts, sharded by
// key hash so concurrent matchers contend only when their preferences
// land on the same shard. Under one worker it behaves exactly like the
// old single-mutex cache; under N workers the lock a lookup takes is
// 1/shards as hot. Each shard keeps its own FIFO order and its own slice
// of the global bound, so the total entry count never exceeds max and
// eviction stays oldest-first within a shard.
type convCache struct {
	shards []convShard
	hits   atomic.Int64
	misses atomic.Int64
}

// convShard is one lock's worth of the cache: a bounded FIFO map,
// exactly the old whole-cache structure at 1/shards scale.
type convShard struct {
	mu    sync.Mutex
	max   int
	m     map[convKey]any
	order []convKey
}

func newConvCache(max int) *convCache {
	if max <= 0 {
		max = defaultConvCacheSize
	}
	n := maxConvShards
	if n > max {
		n = max // never let shard quotas round down to zero
	}
	perShard := max / n
	if perShard < 1 {
		perShard = 1
	}
	c := &convCache{shards: make([]convShard, n)}
	for i := range c.shards {
		c.shards[i] = convShard{max: perShard, m: map[convKey]any{}}
	}
	return c
}

// shard picks the home shard for a key. FNV-1a over every key field:
// cheap, deterministic, and spreads the (pref, policy) pairs that differ
// only in one field.
func (c *convCache) shard(k convKey) *convShard {
	h := uint32(2166136261)
	for _, s := range [2]string{k.pref, k.policy} {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// peek looks a key up without counting the lookup.
func (c *convCache) peek(k convKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

// get looks a preference's entry up and counts the hit or miss.
func (c *convCache) get(k convKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.peek(k)
	if ok {
		c.hits.Add(1)
		obsConvHits.Inc()
	} else {
		c.misses.Add(1)
		obsConvMisses.Inc()
	}
	return v, ok
}

func (c *convCache) put(k convKey, v any) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[k]; !exists {
		if len(sh.order) >= sh.max {
			oldest := sh.order[0]
			sh.order = sh.order[1:]
			delete(sh.m, oldest)
			obsConvEntries.Add(-1)
		}
		sh.order = append(sh.order, k)
		obsConvEntries.Add(1)
	}
	sh.m[k] = v
}

// purgePolicy drops every entry bound to the named policy, called when
// the policy is removed (its ids would otherwise go stale).
func (c *convCache) purgePolicy(name string) {
	c.purgeIf(func(k convKey) bool { return k.policy == name })
}

// purgePolicyBound drops every policy-bound entry (the XTABLE
// translations), called when a bulk replace reassigns every policy id.
// Policy-independent entries — the bulk of the cache — survive the swap.
func (c *convCache) purgePolicyBound() {
	c.purgeIf(func(k convKey) bool { return k.policy != "" })
}

func (c *convCache) purgeIf(drop func(convKey) bool) {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		kept := sh.order[:0]
		purged := int64(0)
		for _, k := range sh.order {
			if drop(k) {
				delete(sh.m, k)
				purged++
				continue
			}
			kept = append(kept, k)
		}
		sh.order = kept
		// The gauge delta is applied under this shard's lock, so the
		// process-wide entries gauge tracks live entries exactly even
		// while other shards churn.
		obsConvEntries.Add(-purged)
		sh.mu.Unlock()
	}
}

func (c *convCache) size() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// ConversionCacheStats reports the Site's conversion-cache hit/miss
// counters and current entry count. All zeros when the cache is disabled.
func (s *Site) ConversionCacheStats() (hits, misses int64, size int) {
	if s.conv == nil {
		return 0, 0, 0
	}
	return s.conv.hits.Load(), s.conv.misses.Load(), s.conv.size()
}

// prefConv is the conversion-cache entry of one preference text: the
// ruleset, parsed when the entry is made, and the policy-independent
// engine translations, each built by the first match that needs it.
// Racing first matches may each build a translation; they build the same
// one, and the last store wins. The native engine and the fast path use
// the ruleset as it is — the baseline's defining cost, parsing and
// augmenting the *policy* per match, is deliberately not cached.
// Translations hold one executable per rule, index-aligned with rs.Rules;
// behavior, prompt and description are read from the rules themselves.
type prefConv struct {
	// xml is the preference text the entry is keyed by; XTABLE's
	// per-policy entries extend that key.
	xml    string
	rs     *appel.Ruleset
	sql    atomic.Pointer[[]reldb.Statement]
	xquery atomic.Pointer[[]*xquery.Query]
}

// xtableConv caches the XQuery→SQL view-reconstruction translation. The
// generated SQL embeds the policy id, so entries are per policy and
// record the id they were generated against: a hit whose id no longer
// matches the snapshot's (the policy was re-installed under a new id) is
// rebuilt instead of served.
type xtableConv struct {
	stmts []reldb.Statement
	genID int
}

// conversion returns the cache entry of a preference text, parsing the
// text if the cache does not hold it. This is the only place a served
// request parses APPEL: the fast path and whichever engine runs after it
// find the entry the first of them made.
func (s *Site) conversion(prefXML string) (*prefConv, error) {
	k := convKey{pref: prefXML}
	if v, ok := s.conv.get(k); ok {
		return v.(*prefConv), nil
	}
	if err := faultkit.Inject(faultkit.PointConvFill); err != nil {
		return nil, err
	}
	rs, err := appel.Parse(prefXML)
	if err != nil {
		return nil, err
	}
	c := &prefConv{xml: prefXML, rs: rs}
	s.conv.put(k, c)
	return c, nil
}

// sqlConversion returns a preference's translation against the optimized
// schema: statements built directly as reldb binds and executes them,
// with the policy id as a parameter. reldb binds a plan to the schema's
// catalog, not to a database, so statement and plan serve every policy
// and stay valid across snapshot swaps.
func (s *Site) sqlConversion(c *prefConv) ([]reldb.Statement, error) {
	if p := c.sql.Load(); p != nil {
		return *p, nil
	}
	stmts, err := compileRules(c.rs, s.opts.DB)
	if err != nil {
		return nil, err
	}
	c.sql.Store(&stmts)
	return stmts, nil
}

// compileRules translates rs against the optimized schema with the
// policy id left as a parameter — so one compilation serves every policy
// on the site. The statements are built as reldb executes them; no SQL
// text is written or parsed. They are admitted under the same statement-
// complexity limits a database opened with dbOpts applies to text it
// prepares.
func compileRules(rs *appel.Ruleset, dbOpts reldb.Options) ([]reldb.Statement, error) {
	queries, err := sqlgen.BuildRulesetOptimized(rs, sqlgen.ParamPolicySubquery())
	if err != nil {
		return nil, err
	}
	stmts := make([]reldb.Statement, 0, len(queries))
	for i, q := range queries {
		if err := dbOpts.CheckComplexity(q.Stmt); err != nil {
			return nil, fmt.Errorf("core: preparing rule %d: %w", i+1, err)
		}
		stmts = append(stmts, q.Stmt)
	}
	return stmts, nil
}

// xqueryConversion returns a preference's APPEL→XQuery translation as
// parsed queries; the policy is bound at evaluation time through the
// document resolver.
func (s *Site) xqueryConversion(c *prefConv) ([]*xquery.Query, error) {
	if p := c.xquery.Load(); p != nil {
		return *p, nil
	}
	xqs, err := xqgen.TranslateRuleset(c.rs)
	if err != nil {
		return nil, err
	}
	queries := make([]*xquery.Query, 0, len(xqs))
	for _, xq := range xqs {
		parsed, err := xquery.Parse(xq.XQuery)
		if err != nil {
			return nil, err
		}
		queries = append(queries, parsed)
	}
	c.xquery.Store(&queries)
	return queries, nil
}

// xtableConversion translates a preference to SQL over the generic schema
// through the XML-view layer for one policy, through the cache. A cached
// entry is only served when its embedded policy id still matches the
// snapshot's — re-installation under a new id invalidates it in place.
func (s *Site) xtableConversion(pe *policyEntry, genDB *reldb.DB, c *prefConv) ([]reldb.Statement, error) {
	k := convKey{pref: c.xml, policy: pe.policy.Name}
	policyID := pe.id
	if v, ok := s.conv.peek(k); ok {
		if e := v.(*xtableConv); e.genID == policyID {
			return e.stmts, nil
		}
	}
	if err := faultkit.Inject(faultkit.PointConvFill); err != nil {
		return nil, err
	}
	xqs, err := xqgen.TranslateRuleset(c.rs)
	if err != nil {
		return nil, err
	}
	// The whole preference is prepared before any rule runs; a rule
	// whose view-reconstructed SQL exceeds the engine's complexity
	// limits fails here, the way XTABLE's Medium translation failed at
	// DB2 prepare time in the paper's experiments.
	e := &xtableConv{genID: policyID}
	for i, xq := range xqs {
		q, err := xtable.TranslateXQuery(xq.XQuery, sqlgen.FixedPolicySubquery(policyID), xtable.Options{})
		if err != nil {
			return nil, err
		}
		stmt, err := genDB.Prepare(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("core: preparing rule %d: %w", i+1, err)
		}
		e.stmts = append(e.stmts, stmt)
	}
	s.conv.put(k, e)
	return e.stmts, nil
}
