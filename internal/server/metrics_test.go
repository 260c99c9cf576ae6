package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/obs"
)

// fetchMetrics reads GET /metrics?format=json into an obs.Snapshot.
func fetchMetrics(t *testing.T, baseURL string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return s
}

// TestMetricsReconcileWithWorkload is the end-to-end metrics invariant:
// after a known workload — a fixed number of /matchpolicy requests per
// engine — the /metrics deltas must reconcile exactly.
// server.matchpolicy.requests
// grows by the total requests issued, and each core.match.<engine>.total
// grows by that engine's share; the sum of per-engine match counts
// equals the request count. The registry is process-global and other
// tests run in this package, so everything asserts on deltas, and the
// workload is quiesced (requests completed) before the second snapshot.
func TestMetricsReconcileWithWorkload(t *testing.T) {
	ts, c := testServer(t)
	installVolga(t, c)
	pref := appel.JanePreferenceXML

	engines := []string{"native", "sql", "xtable", "xquery"}
	const perEngine = 5

	before := fetchMetrics(t, ts.URL)
	for _, engine := range engines {
		c.Engine = engine
		for i := 0; i < perEngine; i++ {
			if _, code := matchPolicy(t, ts.URL, "volga", engine, pref); code != http.StatusOK {
				t.Fatalf("%s match %d: status %d", engine, i, code)
			}
		}
	}
	after := fetchMetrics(t, ts.URL)
	d := after.Delta(before)

	total := int64(len(engines) * perEngine)
	// The /metrics fetches themselves hit the mux but not /matchpolicy,
	// so its request counter must grow by exactly the workload.
	if got := d.Counters["server.matchpolicy.requests"]; got != total {
		t.Errorf("server.matchpolicy.requests delta = %d, want %d", got, total)
	}
	if got := d.Counters["server.matchpolicy.errors"]; got != 0 {
		t.Errorf("server.matchpolicy.errors delta = %d, want 0", got)
	}
	var engineSum int64
	for _, engine := range engines {
		name := "core.match." + engine + ".total"
		got := d.Counters[name]
		if got != perEngine {
			t.Errorf("%s delta = %d, want %d", name, got, perEngine)
		}
		engineSum += got
		lat := d.Histograms["core.match."+engine+".latency_us"]
		if lat.Count != perEngine {
			t.Errorf("core.match.%s.latency_us count delta = %d, want %d", engine, lat.Count, perEngine)
		}
	}
	if engineSum != total {
		t.Errorf("sum of per-engine match totals = %d, want %d (handler requests)", engineSum, total)
	}
	hist := d.Histograms["server.matchpolicy.latency_us"]
	if hist.Count != total {
		t.Errorf("server.matchpolicy.latency_us count delta = %d, want %d", hist.Count, total)
	}
}

// TestMetricsEndpointFormats checks the /metrics content negotiation and
// that /debug/vars carries the p3p expvar.
func TestMetricsEndpointFormats(t *testing.T) {
	ts, c := testServer(t)
	installVolga(t, c)
	pref := appel.JanePreferenceXML
	if _, code := matchPolicy(t, ts.URL, "volga", "sql", pref); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "server.matchpolicy.requests ") {
		t.Errorf("text /metrics missing server.matchpolicy.requests:\n%.400s", body)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		P3P obs.Snapshot `json:"p3p"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars JSON: %v", err)
	}
	if vars.P3P.Counters["server.matchpolicy.requests"] < 1 {
		t.Errorf("/debug/vars p3p.counters missing match requests: %+v", vars.P3P.Counters)
	}
}

// TestTraceLogEmitsRequestLines installs a trace writer and checks one
// JSON line per /matchpolicy request, with the engine annotation the core
// layer attaches riding on the request root span.
func TestTraceLogEmitsRequestLines(t *testing.T) {
	var mu struct {
		buf strings.Builder
	}
	obs.SetTraceWriter(writerFunc(func(p []byte) (int, error) {
		return mu.buf.Write(p)
	}))
	defer obs.SetTraceWriter(nil)

	ts, c := testServer(t)
	installVolga(t, c)
	pref := appel.JanePreferenceXML
	c.Engine = "sql"
	if _, code := matchPolicy(t, ts.URL, "volga", c.Engine, pref); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}

	lines := strings.Split(strings.TrimSpace(mu.buf.String()), "\n")
	var matchLines []obs.TraceLine
	for _, l := range lines {
		var tl obs.TraceLine
		if err := json.Unmarshal([]byte(l), &tl); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, l)
		}
		if tl.Span == "server.matchpolicy" {
			matchLines = append(matchLines, tl)
		}
	}
	if len(matchLines) != 1 {
		t.Fatalf("want 1 server.matchpolicy trace line, got %d (%d total lines)", len(matchLines), len(lines))
	}
	tl := matchLines[0]
	if tl.Outcome != "ok" || tl.Attrs["status"] != "200" {
		t.Errorf("trace outcome/status = %q/%q, want ok/200", tl.Outcome, tl.Attrs["status"])
	}
	if tl.Attrs["engine"] != "sql" || tl.Attrs["policy"] != "volga" {
		t.Errorf("trace attrs missing engine/policy: %v", tl.Attrs)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
