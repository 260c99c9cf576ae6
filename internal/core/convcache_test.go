package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"p3pdb/internal/obs"
	"p3pdb/internal/p3p"
	"p3pdb/internal/workload"
)

// newCacheTestSite installs a small corpus into a site built with opts.
func newCacheTestSite(t *testing.T, opts Options) *Site {
	t.Helper()
	s, err := NewSiteWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(42)
	for _, pol := range d.Policies[:4] {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestConversionCacheHitConvertNearZero asserts the §6.3.2 claim the cache
// implements: on a repeat match the conversion phase collapses to a cache
// lookup, so Decision.Convert is effectively zero while the first match
// paid the full translate-and-prepare cost.
func TestConversionCacheHitConvertNearZero(t *testing.T) {
	// The decision cache would serve the repeat match before the engines
	// (and the conversion cache) ever run; disable it so the repeat
	// exercises the conversion layer this test is about.
	s := newCacheTestSite(t, Options{DisableDecisionCache: true})
	pref, _ := workload.PreferenceByLevel("High")
	name := s.PolicyNames()[0]

	for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery} {
		t.Run(engine.ShortName(), func(t *testing.T) {
			if _, err := s.MatchPolicy(pref.XML, name, engine); err != nil {
				t.Fatal(err)
			}
			hitsBefore, _, _ := s.ConversionCacheStats()
			dec, err := s.MatchPolicy(pref.XML, name, engine)
			if err != nil {
				t.Fatal(err)
			}
			hitsAfter, _, _ := s.ConversionCacheStats()
			if hitsAfter <= hitsBefore {
				t.Errorf("cache hits did not increase: %d -> %d", hitsBefore, hitsAfter)
			}
			// A hit's Convert is one map lookup. 5ms is orders of magnitude
			// above that even under the race detector, and orders of
			// magnitude below an actual translate-and-prepare.
			if dec.Convert > 5*time.Millisecond {
				t.Errorf("cache-hit Convert = %v, want ~zero", dec.Convert)
			}
		})
	}
}

// TestCachedDecisionsMatchUncached asserts the cache is semantically
// invisible: decisions served from cached conversions are identical,
// field for field, to a cache-disabled site's (timings excluded).
func TestCachedDecisionsMatchUncached(t *testing.T) {
	cached := newCacheTestSite(t, Options{DisableDecisionCache: true})
	uncached := newCacheTestSite(t, Options{
		DisableConversionCache: true,
		DisableDecisionCache:   true,
	})
	if _, _, size := uncached.ConversionCacheStats(); size != 0 {
		t.Fatalf("disabled cache reports size %d", size)
	}

	for _, level := range []string{"High", "Low"} {
		pref, ok := workload.PreferenceByLevel(level)
		if !ok {
			t.Fatalf("no level %s", level)
		}
		for _, engine := range Engines {
			for _, name := range cached.PolicyNames() {
				// Match twice on the cached site so the compared decision
				// is definitely served from the cache.
				if _, err := cached.MatchPolicy(pref.XML, name, engine); err != nil {
					t.Fatal(err)
				}
				got, err := cached.MatchPolicy(pref.XML, name, engine)
				if err != nil {
					t.Fatal(err)
				}
				want, err := uncached.MatchPolicy(pref.XML, name, engine)
				if err != nil {
					t.Fatal(err)
				}
				got.Convert, got.Query = 0, 0
				want.Convert, want.Query = 0, 0
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s vs %s: cached %+v != uncached %+v",
						engine.ShortName(), level, name, got, want)
				}
			}
		}
	}
}

// TestConversionCacheOneParsePerPreference pins what a miss means: one
// preference text is parsed once, however many consumers it has. A
// never-seen text that falls past the fast path of a check misses once —
// the fast path makes the entry and the engine finds it — and a second
// policy, a second engine, and a plain match of the same text add no
// miss; only a new text does.
func TestConversionCacheOneParsePerPreference(t *testing.T) {
	s := newCacheTestSite(t, Options{})
	names := s.PolicyNames()
	// Medium is outside the summary-safe fragment, so every check of it
	// falls back to the engine.
	variants := workload.PreferenceVariants("Medium", 2)
	misses := func() int64 {
		_, m, _ := s.ConversionCacheStats()
		return m
	}
	check := func(pref, policy string, engine Engine, wantMisses int64) {
		t.Helper()
		before := misses()
		res, err := checkPolicy(s, pref, policy, engine)
		if err != nil {
			t.Fatal(err)
		}
		if res.FastPath || res.Decision == nil || res.Decision.Cached {
			t.Fatalf("check did not run the %s engine: %+v", engine.ShortName(), res)
		}
		if got := misses() - before; got != wantMisses {
			t.Errorf("%s check against %s: %d conversion misses, want %d", engine.ShortName(), policy, got, wantMisses)
		}
	}
	check(variants[0].XML, names[0], EngineSQL, 1)
	check(variants[0].XML, names[1], EngineSQL, 0)
	check(variants[0].XML, names[0], EngineXQuery, 0)
	check(variants[0].XML, names[0], EngineNative, 0)
	before := misses()
	if _, err := s.MatchPolicy(variants[0].XML, names[2], EngineSQL); err != nil {
		t.Fatal(err)
	}
	if got := misses() - before; got != 0 {
		t.Errorf("match of a resident text: %d conversion misses, want 0", got)
	}
	check(variants[1].XML, names[0], EngineSQL, 1)
}

// TestConversionCachePurgeOnRemove asserts policy-bound (XTABLE) entries
// are dropped with their policy while policy-independent entries survive.
func TestConversionCachePurgeOnRemove(t *testing.T) {
	s := newCacheTestSite(t, Options{})
	pref, _ := workload.PreferenceByLevel("High")
	names := s.PolicyNames()

	for _, name := range names {
		if _, err := s.MatchPolicy(pref.XML, name, EngineXTable); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.MatchPolicy(pref.XML, names[0], EngineSQL); err != nil {
		t.Fatal(err)
	}
	_, _, before := s.ConversionCacheStats()

	if err := s.RemovePolicy(names[0]); err != nil {
		t.Fatal(err)
	}
	_, _, after := s.ConversionCacheStats()
	if after != before-1 {
		t.Errorf("size after removing one policy: %d, want %d", after, before-1)
	}

	// The policy-independent SQL entry must still serve the others.
	hitsBefore, _, _ := s.ConversionCacheStats()
	if _, err := s.MatchPolicy(pref.XML, names[1], EngineSQL); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _, _ := s.ConversionCacheStats()
	if hitsAfter <= hitsBefore {
		t.Error("SQL conversion was not served from cache after unrelated purge")
	}
}

// TestConversionCacheBounded asserts the FIFO bound holds.
func TestConversionCacheBounded(t *testing.T) {
	s := newCacheTestSite(t, Options{ConversionCacheSize: 2})
	name := s.PolicyNames()[0]
	for _, level := range []string{"Very High", "High", "Medium", "Low", "Very Low"} {
		pref, ok := workload.PreferenceByLevel(level)
		if !ok {
			t.Fatalf("no level %s", level)
		}
		if _, err := s.MatchPolicy(pref.XML, name, EngineSQL); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := s.ConversionCacheStats(); size > 2 {
		t.Errorf("cache size %d exceeds bound 2", size)
	}
}

// TestConversionCacheObsExport asserts the registry view of the cache
// (core.convcache.* in the obs registry, what GET /metrics serves) stays
// in lockstep with the Site's own counters: hit and miss deltas match
// ConversionCacheStats exactly, the entries gauge grows with fills, and
// a policy removal purges the policy-bound entries back out of the
// gauge. The gauge is process-global (it sums every Site's cache), so
// all assertions are on deltas around operations on this one site.
func TestConversionCacheObsExport(t *testing.T) {
	hitsC := obs.GetCounter("core.convcache.hits")
	missesC := obs.GetCounter("core.convcache.misses")
	entriesG := obs.GetGauge("core.convcache.entries")

	h0, m0, e0 := hitsC.Value(), missesC.Value(), entriesG.Value()
	s := newCacheTestSite(t, Options{})
	pref, _ := workload.PreferenceByLevel("High")
	names := s.PolicyNames()

	// One XTable match per policy (policy-bound entries) plus a repeated
	// SQL match (one policy-independent entry, then hits).
	for _, name := range names {
		if _, err := s.MatchPolicy(pref.XML, name, EngineXTable); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.MatchPolicy(pref.XML, names[0], EngineSQL); err != nil {
			t.Fatal(err)
		}
	}

	siteHits, siteMisses, siteSize := s.ConversionCacheStats()
	if got := hitsC.Value() - h0; got != siteHits {
		t.Errorf("obs hits delta = %d, site counter = %d", got, siteHits)
	}
	if got := missesC.Value() - m0; got != siteMisses {
		t.Errorf("obs misses delta = %d, site counter = %d", got, siteMisses)
	}
	if got := entriesG.Value() - e0; got != int64(siteSize) {
		t.Errorf("obs entries delta = %d, site size = %d", got, siteSize)
	}

	// Removing a policy purges its policy-bound entry; the gauge must
	// follow the site's size down, not drift.
	if err := s.RemovePolicy(names[0]); err != nil {
		t.Fatal(err)
	}
	_, _, sizeAfter := s.ConversionCacheStats()
	if sizeAfter != siteSize-1 {
		t.Fatalf("site size after purge = %d, want %d", sizeAfter, siteSize-1)
	}
	if got := entriesG.Value() - e0; got != int64(sizeAfter) {
		t.Errorf("obs entries delta after purge = %d, site size = %d", got, sizeAfter)
	}
}

// TestConversionCacheObsGaugeExactSharded churns the sharded cache —
// concurrent fills, per-shard FIFO evictions, and a mid-churn policy
// purge — and asserts the core.convcache.entries gauge still equals the
// site's entry count exactly. Every gauge move happens under the owning
// shard's lock, so fills and evictions racing across shards must never
// make it drift.
func TestConversionCacheObsGaugeExactSharded(t *testing.T) {
	entriesG := obs.GetGauge("core.convcache.entries")
	e0 := entriesG.Value()

	const bound = 32 // 16 shards x 2 entries: churn forces per-shard evictions
	s, err := NewSiteWithOptions(Options{
		ConversionCacheSize: bound,
		// Distinct preference texts would mostly bypass the decision cache
		// anyway, but disable it so repeats also exercise the conversion
		// layer under test.
		DisableDecisionCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(42)
	for _, pol := range d.Policies[:6] {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	prefs := workload.PreferenceVariants("High", 48)

	// Seed a policy-bound entry for the policy the writer will purge.
	if _, err := s.MatchPolicy(prefs[0].XML, d.Policies[0].Name, EngineXTable); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, pref := range prefs {
				// Policies [1:6] only: the writer is removing policy 0.
				name := d.Policies[1+(i+w)%5].Name
				engine := EngineSQL
				if i%2 == 1 {
					engine = EngineXTable
				}
				if _, err := s.MatchPolicy(pref.XML, name, engine); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.RemovePolicy(d.Policies[0].Name); err != nil {
			t.Errorf("remove: %v", err)
		}
	}()
	wg.Wait()

	_, _, size := s.ConversionCacheStats()
	if size > bound {
		t.Errorf("cache size %d exceeds bound %d", size, bound)
	}
	if got := entriesG.Value() - e0; got != int64(size) {
		t.Errorf("obs entries delta = %d after churn, site size = %d (gauge drift)", got, size)
	}
}

// TestBoundStatementsServeNextGeneration pins what lets one conversion-
// cache entry outlive snapshots now that statements carry a bound plan:
// the plan binds to the schema's catalog, which every generation's
// database shares, not to the database it first ran against. A
// preference matched under generation N is matched again — from the same
// cached entry, without another conversion — after a publish that adds,
// replaces and removes policies, and every decision still agrees with the
// native engine, which binds nothing.
func TestBoundStatementsServeNextGeneration(t *testing.T) {
	s := newCacheTestSite(t, Options{DisableDecisionCache: true})
	d := workload.Generate(42)
	pref, _ := workload.PreferenceByLevel("High")
	agree := func() {
		t.Helper()
		for _, name := range s.PolicyNames() {
			want, err := s.MatchPolicy(pref.XML, name, EngineNative)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.MatchPolicy(pref.XML, name, EngineSQL)
			if err != nil {
				t.Fatal(err)
			}
			if got.Behavior != want.Behavior || got.RuleIndex != want.RuleIndex {
				t.Errorf("%s: sql %s/rule %d, native %s/rule %d", name, got.Behavior, got.RuleIndex, want.Behavior, want.RuleIndex)
			}
		}
	}
	agree()
	gen := s.state.Load().gen
	_, missesBefore, _ := s.ConversionCacheStats()

	if err := s.RemovePolicy(d.Policies[0].Name); err != nil {
		t.Fatal(err)
	}
	replacement := *d.Policies[5]
	replacement.Name = d.Policies[1].Name // other content under an installed name
	if err := s.ReplacePolicies([]*p3p.Policy{d.Policies[2], d.Policies[3], &replacement, d.Policies[6]}, nil); err != nil {
		t.Fatal(err)
	}
	if s.state.Load().gen == gen {
		t.Fatal("no new generation was published")
	}
	agree()
	if _, misses, _ := s.ConversionCacheStats(); misses != missesBefore {
		t.Errorf("matching the next generation converted again: %d misses, had %d", misses, missesBefore)
	}
}
