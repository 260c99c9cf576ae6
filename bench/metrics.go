package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank q-quantile of vals; 0 when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// metric is one reported number: its value, its unit and how many
// samples it was computed from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the contract the emitted metric and
// workload names are checked against on every run.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloadByName(w.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
	return &s, nil
}

// conform requires got to hold exactly the declared metrics, with the
// declared units.
func conform(decls []metricDecl, got map[string]metric) error {
	for _, d := range decls {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s is measured in %q, BENCHMARK.json declares %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(decls) {
		declared := map[string]bool{}
		for _, d := range decls {
			declared[d.Name] = true
		}
		for name := range got {
			if !declared[name] {
				return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
			}
		}
	}
	return nil
}

// Timings are reported per slice of the window, not over the whole of
// it. On the shared two-core machines this runs on, a neighbour's load
// slows everything by 20 to 30 % for five to ten seconds at a time, and
// a whole-window median moves with how much of the window such an
// episode covered. Each timing is therefore computed for every slice,
// and the reported value is the quartile of the slices on the better
// side: the level the run held for at least a quarter of its slices.
// Interference only ever makes a slice worse, so this estimates the
// undisturbed system and repeats far better than the median does.
const (
	tailSlices  = 2 // slices per group for p99_ms, so that enough samples lie beyond it
	writeSlices = 4 // slices per group for the paced writes (20 writes a group)
)

// better returns the quartile of vals on the better side.
func better(vals []float64, higher bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if higher {
		i = len(s) - 1 - i
	}
	return s[i]
}

// grouped splits samples into groups of per consecutive window slices,
// by completion time.
func grouped(samples []sample, win *windowResult, per int) [][]sample {
	n := max((len(win.childCPUMS)-1)/per, 1)
	groups := make([][]sample, n)
	width := win.slice * time.Duration(per)
	for _, s := range samples {
		i := min(int(s.at/width), n-1)
		groups[i] = append(groups[i], s)
	}
	return groups
}

func tookMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.took)
	}
	return out
}

// endToEnd computes the user-visible metrics of one untraced run.
func endToEnd(w *workloadSpec, out *runOutcome) map[string]metric {
	win := out.win
	var rate, p50, p99, cpu []float64
	for i, g := range grouped(win.reads, win, 1) {
		if len(g) == 0 {
			continue
		}
		rate = append(rate, float64(len(g))/win.slice.Seconds())
		p50 = append(p50, median(tookMS(g)))
		cpu = append(cpu, (win.childCPUMS[i+1]-win.childCPUMS[i])/float64(len(g)))
	}
	for _, g := range grouped(win.reads, win, tailSlices) {
		if len(g) > 0 {
			p99 = append(p99, quantile(tookMS(g), 0.99))
		}
	}
	n := len(win.reads)
	m := map[string]metric{
		"setup_s":       {median(out.setupSecs), "s", len(out.setupSecs)},
		"ops_per_s":     {better(rate, true), "1/s", n},
		"p50_ms":        {better(p50, false), "ms", n},
		"p99_ms":        {better(p99, false), "ms", n},
		"cpu_ms_per_op": {better(cpu, false), "ms", n},
		"rss_mb":        {win.rssMB, "MiB", 1},
	}
	// Writes: the paced in-window writes where the workload has a
	// writer, otherwise the closed-loop policy installs of seeding, one
	// group per set-up. writes_per_s is acknowledged writes over the
	// time the connection was busy with them, the rate one connection
	// writing back to back would reach; the paced writer's own rate is
	// 5/s by construction.
	groups := out.installs
	if w.writer {
		groups = grouped(win.writes, win, writeSlices)
	}
	var wp50, wp90, wrate []float64
	writes := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		var busy time.Duration
		for _, s := range g {
			busy += s.busy
		}
		writes += len(g)
		wp50 = append(wp50, median(tookMS(g)))
		wp90 = append(wp90, quantile(tookMS(g), 0.90))
		wrate = append(wrate, float64(len(g))/busy.Seconds())
	}
	m["write_p50_ms"] = metric{better(wp50, false), "ms", writes}
	m["write_p90_ms"] = metric{better(wp90, false), "ms", writes}
	m["writes_per_s"] = metric{better(wrate, true), "1/s", writes}
	return m
}

// printMetrics prints every metric by name with its unit and sample
// count, in a stable order.
func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Printf("%-14s %-34s %14.4f %-6s n=%d\n", workload, name, m.Value, m.Unit, m.N)
	}
}
