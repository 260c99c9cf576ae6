// Command bench is the repository benchmark (BENCHMARK.json).
//
//	go run ./bench                       all four workloads, then the traced pass
//	go run ./bench -seed=7               the same with other traffic
//	go run ./bench -corpus-seed=7        the same on policies never measured before
//	go run ./bench -verify-repeat        two full sets, compared against the bounds
//	bash bench/run.sh --workload check_hot --seed 3 --seconds 20 --trace 0
//
// The last form is what the driver of BENCHMARK.json runs: one workload,
// one JSON object on the last line of standard output. See README.md in
// this directory for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir holds everything a run leaves behind except results: the
// built server, and each child's sites, state and log directories.
const buildDir = ".bench_build"

// config is one invocation's settings.
type config struct {
	root   string  // checkout root: where BENCHMARK.json and go.mod are
	runDir string  // scratch space for child processes, inside the checkout
	corpus *corpus // generated once per invocation; carries the traffic seed
	window time.Duration
	setups int // set-ups per run; setup_s is their median
	// enforceHygiene refuses a run whose generator was too busy or too
	// late; only the smoke test, whose windows are too short for the
	// limits to mean anything, turns it off.
	enforceHygiene bool
	// traceScale divides the traced pass's op counts (smoke test only).
	traceScale int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside go.mod) above the working directory")
		}
		dir = parent
	}
}

func run() error {
	var (
		workload     = flag.String("workload", "", "run one workload and print the driver's JSON line (empty: run all four)")
		seed         = flag.Int64("seed", 1, "traffic seed: which tenant, page, level and cookie each request draws")
		corpusSeed   = flag.Int64("corpus-seed", defaultSeed, "corpus seed: the generated policies; only the default's numbers are comparable with a baseline")
		seconds      = flag.Float64("seconds", 0, "measured window per workload (0: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		verifyRepeat = flag.Bool("verify-repeat", false, "run two full sets and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("refusing to run on %d CPU: the load shape is two connections against a server, and on one core the numbers measure the scheduler", runtime.NumCPU())
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	c, err := pinnedCorpus()
	if err != nil {
		return err
	}
	if *corpusSeed != defaultSeed {
		c = generateCorpus(*corpusSeed)
	}
	c.traffic = *seed
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := &config{
		root:           root,
		runDir:         filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		corpus:         c,
		window:         time.Duration(*seconds * float64(time.Second)),
		setups:         5,
		enforceHygiene: true,
		traceScale:     1,
	}
	defer os.RemoveAll(cfg.runDir)
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	switch {
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		return driverRun(cfg, spec, bin, w, *trace == 1)
	case *verifyRepeat:
		return verifyRepeatability(cfg, spec, bin)
	}
	set, err := runSet(cfg, spec, bin)
	if err != nil {
		return err
	}
	return writeResults(cfg, set)
}

// driverLine is the JSON object the driver reads from the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun runs one workload the way BENCHMARK.json's driver asks.
// With trace it reports the per-layer metrics: one set-up, a
// quarter-length window (the generator and restart metrics come from
// it) and then the in-process traced pass, whose work is counted in
// operations, not seconds.
func driverRun(cfg *config, spec *benchSpec, bin string, w *workloadSpec, trace bool) error {
	if trace {
		cfg.setups = 1
		cfg.window /= 4
	}
	res, err := measure(cfg, spec, bin, w, trace)
	if err != nil {
		return err
	}
	metrics := res.EndToEnd
	if trace {
		metrics = res.PerLayer
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for name, m := range metrics {
		line.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}
