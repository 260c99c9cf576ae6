package benchkit

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/workload"
)

// The decision-cache experiment measures the cache the way a deployed
// site would feel it: visitor preferences are not uniform — a handful of
// canned browser defaults dominate, with a long tail of hand-edited
// rulesets — so requests are drawn Zipf-distributed over a universe of
// distinct preference texts. The table reports, per universe size, the
// hit rate the cache reaches and the throughput against a cache-disabled
// site running the identical request sequence.

// DecisionCacheConfig parameterizes a decision-cache run.
type DecisionCacheConfig struct {
	// Seed generates the workload and the Zipf draw (default 42).
	Seed int64
	// Level is the preference level the variants are derived from
	// (default "High").
	Level string
	// Engine is the matching engine; the zero value is the native engine.
	Engine core.Engine
	// ZipfS is the Zipf skew parameter, > 1 (default 1.1).
	ZipfS float64
	// Matches is how many matches each row performs (default 20000).
	Matches int
	// DistinctPrefs lists the universe sizes measured, one row each
	// (default 10, 100, 1000).
	DistinctPrefs []int
}

func (c DecisionCacheConfig) withDefaults() DecisionCacheConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Level == "" {
		c.Level = "High"
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.Matches == 0 {
		c.Matches = 20000
	}
	if len(c.DistinctPrefs) == 0 {
		c.DistinctPrefs = []int{10, 100, 1000}
	}
	return c
}

// DecisionCacheRow is one universe-size point of the experiment.
type DecisionCacheRow struct {
	DistinctPrefs int `json:"distinctPrefs"`
	Matches       int `json:"matches"`
	// HitRate counts from a cold cache, so it includes the compulsory
	// miss per distinct preference: the steady-state rate is higher.
	HitRate       float64 `json:"hitRate"`
	MatchesPerSec float64 `json:"matchesPerSec"`
	// UncachedMatchesPerSec runs the identical Zipf sequence against a
	// site with the decision cache disabled (conversion cache still on,
	// as deployed); SpeedupVsUncached is the ratio.
	UncachedMatchesPerSec float64 `json:"uncachedMatchesPerSec"`
	SpeedupVsUncached     float64 `json:"speedupVsUncached"`
}

// DecisionCacheResults is the full table plus the run's parameters,
// shaped for rendering and the BENCH_decisioncache.json artifact.
type DecisionCacheResults struct {
	Seed       int64              `json:"seed"`
	Level      string             `json:"level"`
	Engine     string             `json:"engine"`
	ZipfS      float64            `json:"zipfS"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"numCpu"`
	Rows       []DecisionCacheRow `json:"rows"`
}

// HitRateAt returns the hit rate of the row with the given universe
// size, for the CI gate. ok is false when the run had no such row.
func (r *DecisionCacheResults) HitRateAt(distinct int) (float64, bool) {
	for _, row := range r.Rows {
		if row.DistinctPrefs == distinct {
			return row.HitRate, true
		}
	}
	return 0, false
}

// runZipfSequence replays the Zipf-distributed request sequence against
// a site and reports elapsed time. The rng is rebuilt by each caller
// from the same seed, so the cached and uncached sites see the
// byte-identical sequence of (preference, policy) requests.
func runZipfSequence(site *core.Site, prefs []workload.Preference, policy string,
	engine core.Engine, matches int, seed int64, zipfS float64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(prefs)-1))
	start := time.Now()
	for i := 0; i < matches; i++ {
		pref := prefs[zipf.Uint64()]
		if _, err := site.MatchPolicy(pref.XML, policy, engine); err != nil {
			return 0, fmt.Errorf("benchkit: decision-cache match %d: %w", i, err)
		}
	}
	return time.Since(start), nil
}

// RunDecisionCache measures decision-cache hit rates and speedups over
// Zipf-distributed preference universes of increasing size.
func RunDecisionCache(cfg DecisionCacheConfig) (*DecisionCacheResults, error) {
	cfg = cfg.withDefaults()
	res := &DecisionCacheResults{
		Seed:       cfg.Seed,
		Level:      cfg.Level,
		Engine:     cfg.Engine.ShortName(),
		ZipfS:      cfg.ZipfS,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for _, distinct := range cfg.DistinctPrefs {
		if distinct < 2 {
			return nil, fmt.Errorf("benchkit: decision-cache universe must have >= 2 preferences, got %d", distinct)
		}
		prefs := workload.PreferenceVariants(cfg.Level, distinct)

		// Fresh sites per row: hit rates count from a cold cache, and the
		// uncached site replays the byte-identical sequence.
		cached, d, err := Setup(Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		uncached, _, err := Setup(Config{Seed: cfg.Seed, DisableDecisionCache: true})
		if err != nil {
			return nil, err
		}
		policy := d.Policies[0].Name

		cachedElapsed, err := runZipfSequence(cached, prefs, policy, cfg.Engine, cfg.Matches, cfg.Seed, cfg.ZipfS)
		if err != nil {
			return nil, err
		}
		uncachedElapsed, err := runZipfSequence(uncached, prefs, policy, cfg.Engine, cfg.Matches, cfg.Seed, cfg.ZipfS)
		if err != nil {
			return nil, err
		}

		hits, misses, _, _ := cached.DecisionCacheStats()
		row := DecisionCacheRow{
			DistinctPrefs:         distinct,
			Matches:               cfg.Matches,
			MatchesPerSec:         float64(cfg.Matches) / cachedElapsed.Seconds(),
			UncachedMatchesPerSec: float64(cfg.Matches) / uncachedElapsed.Seconds(),
		}
		if total := hits + misses; total > 0 {
			row.HitRate = float64(hits) / float64(total)
		}
		if row.UncachedMatchesPerSec > 0 {
			row.SpeedupVsUncached = row.MatchesPerSec / row.UncachedMatchesPerSec
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the decision-cache table.
func (r *DecisionCacheResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Decision cache (%s preference, %s engine, Zipf s=%.2f, cold start)\n",
		r.Level, r.Engine, r.ZipfS)
	fmt.Fprintf(&b, "%10s %10s %9s %14s %16s %9s\n",
		"distinct", "matches", "hit rate", "matches/sec", "uncached m/sec", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %10d %8.1f%% %14.0f %16.0f %8.2fx\n",
			row.DistinctPrefs, row.Matches, row.HitRate*100,
			row.MatchesPerSec, row.UncachedMatchesPerSec, row.SpeedupVsUncached)
	}
	return b.String()
}

// WriteJSON writes the results as the machine-readable artifact
// (BENCH_decisioncache.json) that CI gates and later PRs track.
func (r *DecisionCacheResults) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
