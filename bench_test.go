// Package bench holds the testing.B counterparts of the paper's tables
// and figures. cmd/p3pbench prints the formatted report; these benchmarks
// expose the same cells to `go test -bench`:
//
//	Figure 19   BenchmarkGenerateWorkload (the suite itself is static data;
//	            workload_test.go asserts its Figure 19 statistics)
//	§6.3.1      BenchmarkShredPolicy
//	Figure 20   BenchmarkMatch/<engine>
//	Figure 21   BenchmarkMatchPerLevel/<level>/<engine>
//	§6.3.2      BenchmarkAugmentation/<mode> (the profiling claim),
//	            BenchmarkXTableFirstUse/<cold|warm> (the XTABLE cold cost)
//	Ablations   BenchmarkSchema/<variant>, BenchmarkIndexes/<variant>,
//	            BenchmarkConversion/<variant>
package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/benchkit"
	"p3pdb/internal/core"
	"p3pdb/internal/reldb"
	"p3pdb/internal/shred"
	"p3pdb/internal/sqlgen"
	"p3pdb/internal/workload"
)

const benchSeed = 42

// sharedSite lazily builds one installed site for all matching benchmarks.
var (
	sharedSite *core.Site
	sharedData *workload.Dataset
	// uniqueVariantsUsed counts the preference variants
	// BenchmarkMatchAllUnique has spent on the shared site.
	uniqueVariantsUsed int
)

func site(b *testing.B) (*core.Site, *workload.Dataset) {
	b.Helper()
	if sharedSite == nil {
		s, d, err := benchkit.Setup(benchkit.Config{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		sharedSite = s
		sharedData = d
	}
	return sharedSite, sharedData
}

// BenchmarkGenerateWorkload measures synthesizing the Section 6.2 data
// set (29 policies + 5 preferences).
func BenchmarkGenerateWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := workload.Generate(benchSeed)
		if len(d.Policies) != 29 {
			b.Fatal("bad corpus")
		}
	}
}

// BenchmarkShredPolicy is the §6.3.1 shredding experiment: installing one
// policy into the optimized schema and the XML store. The generic schema
// is built on first XTABLE use; BenchmarkXTableFirstUse prices that.
func BenchmarkShredPolicy(b *testing.B) {
	d := workload.Generate(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.NewSite()
		if err != nil {
			b.Fatal(err)
		}
		pol := d.Policies[i%len(d.Policies)]
		b.StartTimer()
		if err := s.InstallPolicy(pol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXTableFirstUse is the §6.3.2 cold/warm split of the XTABLE
// engine on the 29-policy corpus. A site builds the generic schema on
// the first XTABLE match of each snapshot generation: cold is that match
// (build, translation, query), warm a later match of the same generation.
// The site's caches are off, so cold minus warm is the build.
func BenchmarkXTableFirstUse(b *testing.B) {
	d := workload.Generate(benchSeed)
	s, err := core.NewSiteWithOptions(core.Options{DisableConversionCache: true, DisableDecisionCache: true})
	if err != nil {
		b.Fatal(err)
	}
	pref, _ := workload.PreferenceByLevel("High")
	match := func(b *testing.B) {
		if _, err := s.MatchPolicy(pref.XML, d.Policies[0].Name, core.EngineXTable); err != nil {
			b.Fatal(err)
		}
	}
	// A replace reassigns every policy id, so each one publishes a
	// generation whose generic schema is not built yet.
	replace := func(b *testing.B) {
		if err := s.ReplacePolicies(d.Policies, d.RefFile); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			replace(b)
			b.StartTimer()
			match(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		replace(b)
		match(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			match(b)
		}
	})
}

// matchAll matches one preference level against every policy in the
// corpus with one engine; used by the Figure 20/21 benchmarks.
func matchAll(b *testing.B, engine core.Engine, level string) {
	s, d := site(b)
	pref, ok := workload.PreferenceByLevel(level)
	if !ok {
		b.Fatalf("no level %s", level)
	}
	// Warm up (the paper discards the first, cold match).
	if _, err := s.MatchPolicy(pref.XML, d.Policies[0].Name, engine); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := d.Policies[i%len(d.Policies)]
		if _, err := s.MatchPolicy(pref.XML, pol.Name, engine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatch is Figure 20: matching averaged over the preference
// suite (here represented by the High level, the suite's workhorse) per
// engine.
func BenchmarkMatch(b *testing.B) {
	for _, engine := range core.Engines {
		b.Run(engineSlug(engine), func(b *testing.B) {
			matchAll(b, engine, "High")
		})
	}
}

// BenchmarkMatchParallel is the Figure 20 workload driven from many
// goroutines at once (b.RunParallel): the server-side scenario where
// concurrent visitors match against the installed corpus. Dividing this
// benchmark's matches/sec by BenchmarkMatch's measures how far the read
// path scales with GOMAXPROCS.
func BenchmarkMatchParallel(b *testing.B) {
	for _, engine := range core.Engines {
		b.Run(engineSlug(engine), func(b *testing.B) {
			s, d := site(b)
			pref, ok := workload.PreferenceByLevel("High")
			if !ok {
				b.Fatal("no High level")
			}
			// Warm up so conversion caching and view fills are excluded,
			// matching BenchmarkMatch's discarded cold match.
			if _, err := s.MatchPolicy(pref.XML, d.Policies[0].Name, engine); err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					pol := d.Policies[int(i)%len(d.Policies)]
					if _, err := s.MatchPolicy(pref.XML, pol.Name, engine); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMatchAllUnique is the benchmark's matchall_sql workload in
// process: one MatchAll on the SQL engine across the 29 policies per
// op, each with a preference text no earlier op used, alternating High
// and Very High. The conversion and decision caches miss by
// construction, so an op is one conversion plus 29 policies' statement
// executions; allocations per op are the figure the bound reldb plan is
// held to.
func BenchmarkMatchAllUnique(b *testing.B) {
	s, d := site(b)
	// The site and its caches outlive one run of this function (the
	// b.N ramp, -count), so each run takes variants no earlier run did.
	from := uniqueVariantsUsed
	uniqueVariantsUsed += b.N/2 + 1
	high := workload.PreferenceVariants("High", uniqueVariantsUsed)[from:]
	veryHigh := workload.PreferenceVariants("Very High", uniqueVariantsUsed)[from:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pref := high[i/2]
		if i%2 == 1 {
			pref = veryHigh[i/2]
		}
		ds, err := s.MatchAll(pref.XML, core.EngineSQL)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != len(d.Policies) {
			b.Fatalf("matched %d policies, want %d", len(ds), len(d.Policies))
		}
	}
}

// BenchmarkMatchPerLevel is Figure 21: every preference level on every
// engine. The Medium/XQuery cell is expected to fail translation, so it
// is skipped — the figure's blank cell.
func BenchmarkMatchPerLevel(b *testing.B) {
	for _, level := range workload.Levels {
		for _, engine := range core.Engines {
			if engine == core.EngineXTable && level == "Medium" {
				continue // Figure 21's blank cell
			}
			name := strings.ReplaceAll(level, " ", "") + "/" + engineSlug(engine)
			b.Run(name, func(b *testing.B) {
				matchAll(b, engine, level)
			})
		}
	}
}

// BenchmarkAugmentation is the §6.3.2 profiling claim: the native
// engine's cost with the faithful document-consulting augmentation, with
// indexed augmentation, and with augmentation disabled.
func BenchmarkAugmentation(b *testing.B) {
	d := workload.Generate(benchSeed)
	pref, _ := workload.PreferenceByLevel("High")
	rs, err := appel.Parse(pref.XML)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts appelengine.Options
	}{
		{"document", appelengine.Options{}},
		{"indexed", appelengine.Options{IndexedAugmentation: true}},
		{"off", appelengine.Options{SkipAugmentation: true}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			engine := appelengine.NewWithOptions(mode.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol := d.Policies[i%len(d.Policies)]
				if _, err := engine.Match(rs, d.PolicyXML[pol.Name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStores builds the relational fixtures the schema ablations need.
func benchStores(b *testing.B, opts reldb.Options) (*reldb.DB, map[string]int, *reldb.DB, map[string]int) {
	b.Helper()
	d := workload.Generate(benchSeed)
	optDB := reldb.NewWithOptions(opts)
	optStore, err := shred.NewOptimized(optDB)
	if err != nil {
		b.Fatal(err)
	}
	genDB := reldb.NewWithOptions(opts)
	genStore, err := shred.NewGeneric(genDB)
	if err != nil {
		b.Fatal(err)
	}
	optIDs := map[string]int{}
	genIDs := map[string]int{}
	for _, pol := range d.Policies {
		id, err := optStore.InstallPolicy(pol)
		if err != nil {
			b.Fatal(err)
		}
		optIDs[pol.Name] = id
		gid, err := genStore.InstallPolicy(pol)
		if err != nil {
			b.Fatal(err)
		}
		genIDs[pol.Name] = gid
	}
	return optDB, optIDs, genDB, genIDs
}

// BenchmarkSchema is the generic-vs-optimized schema ablation (the
// Figure 14 optimizations): the same preference translated and executed
// against both schemas, plus the XML-view variant.
func BenchmarkSchema(b *testing.B) {
	d := workload.Generate(benchSeed)
	pref, _ := workload.PreferenceByLevel("High")
	rs, err := appel.Parse(pref.XML)
	if err != nil {
		b.Fatal(err)
	}
	optDB, optIDs, genDB, genIDs := benchStores(b, reldb.Options{})
	run := func(b *testing.B, db *reldb.DB, translate func(string) ([]sqlgen.RuleQuery, error)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol := d.Policies[i%len(d.Policies)]
			qs, err := translate(pol.Name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlgen.Match(db, qs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("optimized", func(b *testing.B) {
		run(b, optDB, func(name string) ([]sqlgen.RuleQuery, error) {
			return sqlgen.TranslateRulesetOptimized(rs, sqlgen.FixedPolicySubquery(optIDs[name]))
		})
	})
	b.Run("generic", func(b *testing.B) {
		run(b, genDB, func(name string) ([]sqlgen.RuleQuery, error) {
			return sqlgen.TranslateRulesetGeneric(rs, sqlgen.FixedPolicySubquery(genIDs[name]), sqlgen.GenericOptions{})
		})
	})
	b.Run("generic-view", func(b *testing.B) {
		run(b, genDB, func(name string) ([]sqlgen.RuleQuery, error) {
			return sqlgen.TranslateRulesetGeneric(rs, sqlgen.FixedPolicySubquery(genIDs[name]), sqlgen.GenericOptions{ViewReconstruction: true})
		})
	})
}

// BenchmarkIndexes is the reldb access-path ablation: the optimized-schema
// matching workload with hash indexes enabled versus full scans.
func BenchmarkIndexes(b *testing.B) {
	d := workload.Generate(benchSeed)
	pref, _ := workload.PreferenceByLevel("High")
	rs, err := appel.Parse(pref.XML)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts reldb.Options
	}{
		{"hash", reldb.Options{}},
		{"scan", reldb.Options{DisableIndexes: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			optDB, optIDs, _, _ := benchStores(b, variant.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol := d.Policies[i%len(d.Policies)]
				qs, err := sqlgen.TranslateRulesetOptimized(rs, sqlgen.FixedPolicySubquery(optIDs[pol.Name]))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sqlgen.Match(optDB, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConversion is the conversion-cache ablation: the full
// translate-and-parse pipeline per match versus reusing prepared
// statements (the paper's "preference generation GUI tool produces
// preferences as a set of SQL statements" deployment).
func BenchmarkConversion(b *testing.B) {
	d := workload.Generate(benchSeed)
	pref, _ := workload.PreferenceByLevel("High")
	rs, err := appel.Parse(pref.XML)
	if err != nil {
		b.Fatal(err)
	}
	optDB, optIDs, _, _ := benchStores(b, reldb.Options{})

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pol := d.Policies[i%len(d.Policies)]
			qs, err := sqlgen.TranslateRulesetOptimized(rs, sqlgen.FixedPolicySubquery(optIDs[pol.Name]))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlgen.Match(optDB, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		prepared := map[string][]reldb.Statement{}
		for _, pol := range d.Policies {
			qs, err := sqlgen.TranslateRulesetOptimized(rs, sqlgen.FixedPolicySubquery(optIDs[pol.Name]))
			if err != nil {
				b.Fatal(err)
			}
			var stmts []reldb.Statement
			for _, q := range qs {
				stmt, err := optDB.Prepare(q.SQL)
				if err != nil {
					b.Fatal(err)
				}
				stmts = append(stmts, stmt)
			}
			prepared[pol.Name] = stmts
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol := d.Policies[i%len(d.Policies)]
			for _, stmt := range prepared[pol.Name] {
				ok, err := optDB.QueryExistsStmt(stmt)
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					break
				}
			}
		}
	})
}

func engineSlug(e core.Engine) string {
	switch e {
	case core.EngineNative:
		return "APPELEngine"
	case core.EngineSQL:
		return "SQL"
	case core.EngineXTable:
		return "XQuery"
	case core.EngineXQuery:
		return "XQueryNativeStore"
	}
	return fmt.Sprintf("engine%d", int(e))
}
