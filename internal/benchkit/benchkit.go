// Package benchkit is the experiment harness: it regenerates every table
// and figure of the paper's Section 6 against the synthesized workload —
// Figure 19 (the preference suite), the shredding measurements of §6.3.1,
// Figures 20 and 21 (matching times per engine and per preference level,
// including the blank Medium/XQuery cell), the warm-vs-cold deltas, and
// the ablations behind the §6.3.2 profiling claim.
//
// cmd/p3pbench drives it from the command line; bench_test.go exposes the
// same cells as testing.B benchmarks.
package benchkit

import (
	"errors"
	"fmt"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/reldb"
	"p3pdb/internal/workload"
)

// Config controls a harness run.
type Config struct {
	// Seed generates the workload; the default 42 reproduces the checked
	// numbers in EXPERIMENTS.md.
	Seed int64
	// Repeats is how many times each (preference, policy, engine) cell
	// is measured; the mean is recorded. Default 3.
	Repeats int
	// Budget caps evaluator steps per match (core.Options.MatchBudget);
	// zero leaves matching ungoverned. Lets the bench suites measure the
	// metering overhead of a governed deployment.
	Budget int64
	// DisableDecisionCache turns off the decision cache on the site under
	// test, so benches can measure the full engine pipeline (and the
	// cache's own benefit, by difference).
	DisableDecisionCache bool
	// DecisionCacheSize overrides the decision cache's slot count; zero
	// keeps the default.
	DecisionCacheSize int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// Sample is one measured preference-against-policy match.
type Sample struct {
	Level   string
	Policy  string
	Convert time.Duration
	Query   time.Duration
}

// Total is the end-to-end time of the sample.
func (s Sample) Total() time.Duration { return s.Convert + s.Query }

// Summary aggregates a series of durations.
type Summary struct {
	N             int
	Avg, Max, Min time.Duration
}

func summarize(ds []time.Duration) Summary {
	if len(ds) == 0 {
		return Summary{}
	}
	s := Summary{N: len(ds), Min: ds[0], Max: ds[0]}
	var total time.Duration
	for _, d := range ds {
		total += d
		if d > s.Max {
			s.Max = d
		}
		if d < s.Min {
			s.Min = d
		}
	}
	s.Avg = total / time.Duration(len(ds))
	return s
}

// Results holds everything a run measured.
type Results struct {
	Config  Config
	Dataset *workload.Dataset

	// ShredTimes holds per-policy shredding durations, in policy order.
	ShredTimes []time.Duration

	// Samples maps engine -> samples over the full matrix. The XTable
	// engine has no Medium samples; TooComplexLevels records the levels
	// it rejected.
	Samples          map[core.Engine][]Sample
	TooComplexLevels map[core.Engine]map[string]bool

	// ColdFirst and WarmAvg record the warm-vs-cold comparison of
	// §6.3.2: the first match on a freshly started site versus the warm
	// average.
	ColdFirst map[core.Engine]time.Duration
	WarmAvg   map[core.Engine]time.Duration
}

// Setup installs the generated corpus into a fresh site.
func Setup(cfg Config) (*core.Site, *workload.Dataset, error) {
	cfg = cfg.withDefaults()
	d := workload.Generate(cfg.Seed)
	site, err := core.NewSiteWithOptions(core.Options{
		MatchBudget:          cfg.Budget,
		DisableDecisionCache: cfg.DisableDecisionCache,
		DecisionCacheSize:    cfg.DecisionCacheSize,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, pol := range d.Policies {
		if err := site.InstallPolicy(pol); err != nil {
			return nil, nil, fmt.Errorf("benchkit: installing %s: %w", pol.Name, err)
		}
	}
	if err := site.InstallReferenceFile(d.RefFile); err != nil {
		return nil, nil, err
	}
	return site, d, nil
}

// Run executes the full experiment suite.
func Run(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	r := &Results{
		Config:           cfg,
		Samples:          map[core.Engine][]Sample{},
		TooComplexLevels: map[core.Engine]map[string]bool{},
		ColdFirst:        map[core.Engine]time.Duration{},
		WarmAvg:          map[core.Engine]time.Duration{},
	}
	d := workload.Generate(cfg.Seed)
	r.Dataset = d

	// --- Shredding (§6.3.1): time to shred one policy. ---
	// Each policy is installed alone into an empty site, as the paper
	// times it; installed into the growing site below, the k-th install
	// would also republish the k-1 policies before it.
	for _, pol := range d.Policies {
		empty, err := core.NewSite()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := empty.InstallPolicy(pol); err != nil {
			return nil, fmt.Errorf("benchkit: installing %s: %w", pol.Name, err)
		}
		r.ShredTimes = append(r.ShredTimes, time.Since(start))
	}
	// The matching site is built untimed. Both caches are off: Figures
	// 20 and 21 price one whole match — conversion and query — and a
	// cache hit would record neither.
	site, err := core.NewSiteWithOptions(core.Options{
		DisableConversionCache: true,
		DisableDecisionCache:   true,
	})
	if err != nil {
		return nil, err
	}
	if err := site.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		return nil, err
	}

	// --- Matching (Figures 20 and 21). ---
	// Warm the system by matching an artificial preference first and
	// discarding the time, as the paper does.
	coldDone := map[core.Engine]bool{}
	for _, engine := range core.Engines {
		start := time.Now()
		if _, err := site.MatchPolicy(d.Preferences[0].XML, d.Policies[0].Name, engine); err != nil {
			return nil, fmt.Errorf("benchkit: warmup %v: %w", engine, err)
		}
		r.ColdFirst[engine] = time.Since(start)
		coldDone[engine] = true
	}
	// The XTABLE engine builds each policy's generic-schema partition on
	// that policy's first match — for the first policy, part of its cold
	// cost above. Build the others here, so Figures 20 and 21 stay warm.
	for _, pol := range d.Policies[1:] {
		if _, err := site.MatchPolicy(d.Preferences[0].XML, pol.Name, core.EngineXTable); err != nil {
			return nil, fmt.Errorf("benchkit: warmup %v: %w", core.EngineXTable, err)
		}
	}

	for _, engine := range core.Engines {
		for _, pref := range d.Preferences {
			for _, pol := range d.Policies {
				var convert, query time.Duration
				failed := false
				for i := 0; i < cfg.Repeats; i++ {
					dec, err := site.MatchPolicy(pref.XML, pol.Name, engine)
					if err != nil {
						if errors.Is(err, reldb.ErrTooComplex) {
							if r.TooComplexLevels[engine] == nil {
								r.TooComplexLevels[engine] = map[string]bool{}
							}
							r.TooComplexLevels[engine][pref.Level] = true
							failed = true
							break
						}
						return nil, fmt.Errorf("benchkit: %v %s vs %s: %w", engine, pref.Level, pol.Name, err)
					}
					convert += dec.Convert
					query += dec.Query
				}
				if failed {
					break // no samples for this level on this engine
				}
				r.Samples[engine] = append(r.Samples[engine], Sample{
					Level:   pref.Level,
					Policy:  pol.Name,
					Convert: convert / time.Duration(cfg.Repeats),
					Query:   query / time.Duration(cfg.Repeats),
				})
			}
		}
	}

	// Warm averages for the warm-vs-cold comparison: the same cell the
	// cold measurement used (first preference against first policy), so
	// the delta isolates first-use costs rather than workload mix.
	coldLevel := d.Preferences[0].Level
	coldPolicy := d.Policies[0].Name
	for _, engine := range core.Engines {
		var totals []time.Duration
		for _, s := range r.Samples[engine] {
			if s.Level == coldLevel && s.Policy == coldPolicy {
				totals = append(totals, s.Total())
			}
		}
		r.WarmAvg[engine] = summarize(totals).Avg
	}
	return r, nil
}

// TotalSummary aggregates total match time for an engine across levels.
func (r *Results) TotalSummary(engine core.Engine) Summary {
	var ds []time.Duration
	for _, s := range r.Samples[engine] {
		ds = append(ds, s.Total())
	}
	return summarize(ds)
}

// ConvertSummary aggregates conversion time.
func (r *Results) ConvertSummary(engine core.Engine) Summary {
	var ds []time.Duration
	for _, s := range r.Samples[engine] {
		ds = append(ds, s.Convert)
	}
	return summarize(ds)
}

// QuerySummary aggregates query time.
func (r *Results) QuerySummary(engine core.Engine) Summary {
	var ds []time.Duration
	for _, s := range r.Samples[engine] {
		ds = append(ds, s.Query)
	}
	return summarize(ds)
}

// LevelSummary aggregates one preference level. ok is false when the
// engine could not execute the level (the blank Figure 21 cell).
func (r *Results) LevelSummary(engine core.Engine, level string) (convert, query, total Summary, ok bool) {
	if r.TooComplexLevels[engine][level] {
		return Summary{}, Summary{}, Summary{}, false
	}
	var cs, qs, ts []time.Duration
	for _, s := range r.Samples[engine] {
		if s.Level != level {
			continue
		}
		cs = append(cs, s.Convert)
		qs = append(qs, s.Query)
		ts = append(ts, s.Total())
	}
	if len(ts) == 0 {
		return Summary{}, Summary{}, Summary{}, false
	}
	return summarize(cs), summarize(qs), summarize(ts), true
}

// ShredSummary aggregates the shredding measurements.
func (r *Results) ShredSummary() Summary { return summarize(r.ShredTimes) }

// Speedup returns how many times faster SQL total matching is than the
// native APPEL engine (the paper reports >15x), and the query-only
// speedup (the paper reports ~30x).
func (r *Results) Speedup() (total, queryOnly float64) {
	native := r.TotalSummary(core.EngineNative).Avg
	sqlTotal := r.TotalSummary(core.EngineSQL).Avg
	sqlQuery := r.QuerySummary(core.EngineSQL).Avg
	if sqlTotal > 0 {
		total = float64(native) / float64(sqlTotal)
	}
	if sqlQuery > 0 {
		queryOnly = float64(native) / float64(sqlQuery)
	}
	return total, queryOnly
}
