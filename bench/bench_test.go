package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end on a quarter of the corpus,
// with one-second windows and a tenth of the traced pass: child servers,
// oracle, window, crash check, traced replay. It checks names, correctness and the ratios
// that hold by construction. Its timings are not comparable with
// anything: the windows are too short and the package's neighbours in
// `go test ./...` run beside it.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run below 2 CPUs")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pinnedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	// A quarter of the corpus: one tenant, eight resident preferences.
	// The test shares the machine with every other package's tests, some
	// of which assert on timings, so it must be light.
	c.traffic = 1
	c.tenants, c.resident, c.residentLevel = c.tenants[:1], c.resident[:8], c.residentLevel[:8]
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		root:       root,
		runDir:     t.TempDir(),
		corpus:     c,
		window:     time.Second,
		setups:     1,
		traceScale: 10,
	}
	for _, w := range workloads {
		w := w
		// In parallel: nothing here is timed, and the workloads share
		// nothing but the read-only corpus.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out, err := runWorkload(cfg, bin, c, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := conform(spec.EndToEnd, endToEnd(w, out)); err != nil {
				t.Error(err)
			}
			tr, err := tracedPass(cfg, c, w)
			if err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			layers := perLayer(out, tr)
			if err := conform(spec.PerLayer, layers); err != nil {
				t.Error(err)
			}
			if failed := out.win.failed + tr.failed; failed != 0 {
				t.Errorf("%d operations failed or were answered wrongly", failed)
			}
			fast, decHit, convHit := layers["core.fastpath_ratio"].Value, layers["core.decision_hit_ratio"].Value, layers["core.conv_hit_ratio"].Value
			switch w {
			case checkUnique, matchAllSQL:
				if decHit != 0 || convHit != 0 {
					t.Errorf("decision hit ratio %v, conversion hit ratio %v; both must be exactly 0", decHit, convHit)
				}
			case checkHot:
				if share := fast + (1-fast)*decHit; share <= 0.9 {
					t.Errorf("%.3f of check parts answered by fast path or decision cache, want > 0.9", share)
				}
			}
			checkSpanFile(t, tr)

			if w == matchAllSQL {
				// Counts must repeat exactly for a fixed seed.
				again, err := tracedPass(cfg, c, w)
				if err != nil {
					t.Fatalf("second traced pass: %v", err)
				}
				for _, name := range exactCounts {
					if a, b := tr.metrics[name].Value, again.metrics[name].Value; a != b {
						t.Errorf("%s is %v then %v on the same seed", name, a, b)
					}
				}
			}
		})
	}
}

// checkSpanFile writes the spans out and reads them back: every line is
// a span, ids are the line numbers, and a parent is an earlier span of
// the same operation.
func checkSpanFile(t *testing.T, tr *traceResult) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeSpans(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || len(spans) != len(tr.spans) {
		t.Fatalf("read %d spans back, wrote %d", len(spans), len(tr.spans))
	}
	for i, s := range spans {
		if int(s.ID) != i+1 || s.End < s.Start || s.Name == "" {
			t.Fatalf("malformed span %+v on line %d", s, i+1)
		}
		if s.Parent != 0 {
			if s.Parent >= s.ID || spans[s.Parent-1].Op != s.Op {
				t.Fatalf("span %+v names parent %d, which is not an earlier span of its operation", s, s.Parent)
			}
		}
	}
}
