package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// loadgenMetrics are the two generator-validity numbers of a window:
// the generator's CPU as a share of one core, and how late the paced
// writer sent (0 where no writer runs).
func loadgenMetrics(out *runOutcome) (cpuShare, lateP90MS float64) {
	cpuShare = out.win.loadgenCPUMS / (out.win.seconds * 1000)
	return cpuShare, quantile(out.win.writeLateMS, 0.90)
}

// hygiene refuses a run whose numbers would describe the generator or
// the scheduler instead of p3pserver.
func hygiene(cfg *config, out *runOutcome) error {
	if !cfg.enforceHygiene {
		return nil
	}
	share, late := loadgenMetrics(out)
	if share > maxLoadgenCPUShare {
		return fmt.Errorf("generator used %.0f%% of one core (limit %.0f%%): the run measured the generator", share*100, maxLoadgenCPUShare*100)
	}
	if late > maxWriteLateP90MS {
		return fmt.Errorf("paced writes left %.1f ms late at p90 (limit %.0f ms): the run measured the scheduler", late, maxWriteLateP90MS)
	}
	return nil
}

// workloadResult is one workload's row set in results.json.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// measure runs one workload untraced against child processes and, if
// traced, its traced pass after that, printing every metric by name as
// it is measured and holding the names to BENCHMARK.json.
func measure(cfg *config, spec *benchSpec, bin string, w *workloadSpec, traced bool) (*workloadResult, error) {
	fmt.Fprintf(os.Stderr, "bench: %s: %d set-ups, %s window\n", w.name, cfg.setups, cfg.window)
	out, err := runWorkload(cfg, bin, cfg.corpus, w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: w.name, Attempted: out.win.attempted, Failed: out.win.failed, EndToEnd: endToEnd(w, out)}
	if err := conform(spec.EndToEnd, res.EndToEnd); err != nil {
		return nil, err
	}
	printMetrics(w.name, res.EndToEnd)
	if err := hygiene(cfg, out); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		fmt.Fprintf(os.Stderr, "bench: %s: traced pass\n", w.name)
		tr, err := tracedPass(cfg, cfg.corpus, w)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		res.PerLayer = perLayer(out, tr)
		if err := conform(spec.PerLayer, res.PerLayer); err != nil {
			return nil, err
		}
		printMetrics(w.name, res.PerLayer)
		printSelfTimes(w.name, tr.spans)
		if err := tr.writeSpans(filepath.Join(cfg.root, "bench", "out", "trace-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// runSet measures every workload, untraced and traced.
func runSet(cfg *config, spec *benchSpec, bin string) ([]*workloadResult, error) {
	var set []*workloadResult
	for _, w := range workloads {
		res, err := measure(cfg, spec, bin, w, true)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%-14s %-34s %14.6f %-6s n=%d\n", w.name, "fail_ratio (all runs)", res.FailRatio, "ratio", res.Attempted)
		set = append(set, res)
	}
	for _, res := range set {
		if res.Failed > 0 {
			return set, fmt.Errorf("%s: %d of %d operations failed or were answered wrongly", res.Workload, res.Failed, res.Attempted)
		}
	}
	return set, nil
}

// results is bench/out/results.json: the numbers and everything needed
// to judge whether two files are comparable.
type results struct {
	Commit        string            `json:"commit"`
	GoVersion     string            `json:"go_version"`
	NumCPU        int               `json:"nproc"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	Kernel        string            `json:"kernel"`
	Seed          int64             `json:"seed"`
	CorpusSeed    int64             `json:"corpus_seed"`
	WindowSeconds float64           `json:"window_seconds"`
	SetupsPerRun  int               `json:"setups_per_run"`
	Workloads     []*workloadResult `json:"workloads"`
}

// writeResults stamps a set of results with where and how it was
// measured and writes bench/out/results.json.
func writeResults(cfg *config, set []*workloadResult) error {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	data, err := json.MarshalIndent(results{
		Commit:        commit,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Kernel:        kernel,
		Seed:          cfg.corpus.traffic,
		CorpusSeed:    cfg.corpus.seed,
		WindowSeconds: cfg.window.Seconds(),
		SetupsPerRun:  cfg.setups,
		Workloads:     set,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.root, "bench", "out", "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return nil
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// fixed seed: counts made at one connection with no timers involved.
// server.resp_bytes is not among them (answers carry microsecond
// timings, whose digits vary), nor core.decision_hit_ratio (the decision
// cache seeds its hash per process, so which entries collide varies).
var exactCounts = []string{
	"reldb.rows_per_match", "core.prewarm_evaluated", "prefindex.select_ratio",
	"durable.log_bytes_per_user_byte", "server.req_bytes",
	"core.fastpath_ratio", "core.conv_hit_ratio",
}

// verifyRepeatability runs two full sets on the same binary and holds
// every workload × end-to-end metric to its own bound, and every exact
// count to equality.
func verifyRepeatability(cfg *config, spec *benchSpec, bin string) error {
	var sets [2][]*workloadResult
	for i := range sets {
		fmt.Fprintf(os.Stderr, "bench: verify-repeat: set %d of 2\n", i+1)
		set, err := runSet(cfg, spec, bin)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	breaches := 0
	fmt.Printf("\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for wi, first := range sets[0] {
		second := sets[1][wi]
		decls := append([]metricDecl(nil), spec.EndToEnd...)
		sort.Slice(decls, func(i, j int) bool { return decls[i].Name < decls[j].Name })
		for _, d := range decls {
			a, b := first.EndToEnd[d.Name].Value, second.EndToEnd[d.Name].Value
			// How much worse the second set is than the first, as a
			// share of the first; and the other way round, because
			// neither set is the baseline.
			worse := math.Abs(b-a) / math.Min(a, b)
			flag := ""
			if worse > d.Bound {
				flag = "  BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", first.Workload, d.Name, a, b, worse*100, d.Bound*100, flag)
		}
		for _, name := range exactCounts {
			if a, b := first.PerLayer[name].Value, second.PerLayer[name].Value; a != b {
				fmt.Printf("%-14s %-16s %14.6f %14.6f  differs, must repeat exactly  BREACH\n", first.Workload, name, a, b)
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("verify-repeat: %d metric(s) outside their bound", breaches)
	}
	fmt.Println("verify-repeat: every end-to-end metric within its bound, every exact count equal")
	return writeResults(cfg, sets[1])
}
