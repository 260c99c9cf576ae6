package replica

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p3pdb/internal/faultkit"
	"p3pdb/internal/server"
)

// readConformanceDir loads one side of the shared conformance corpus.
func readConformanceDir(t *testing.T, side string) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "core", "testdata", "conformance", side)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("conformance corpus: %v", err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(e.Name(), ".xml")] = string(data)
	}
	if len(out) == 0 {
		t.Fatalf("conformance corpus %s is empty", dir)
	}
	return out
}

// volatileKeys are per-process measurement fields that legitimately
// differ between two nodes answering the same question: timings, cache
// hits, and the write-generation counter. Everything else — behavior,
// fired rule, compact policy, applicable policy — must be byte-equal.
var volatileKeys = map[string]bool{
	"convertMicros": true,
	"queryMicros":   true,
	"cached":        true,
	"generation":    true,
}

// normalizeDecision strips volatile fields recursively and re-marshals
// with sorted keys, so two decision bodies compare byte-for-byte.
func normalizeDecision(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decision body is not JSON: %v\n%s", err, body)
	}
	var strip func(any) any
	strip = func(x any) any {
		switch m := x.(type) {
		case map[string]any:
			for k, val := range m {
				if volatileKeys[k] {
					delete(m, k)
					continue
				}
				m[k] = strip(val)
			}
			return m
		case []any:
			for i := range m {
				m[i] = strip(m[i])
			}
			return m
		default:
			return x
		}
	}
	out, err := json.Marshal(strip(v))
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// decide issues one decision request and returns status, normalized
// body, and the P3P compact-policy header.
func decide(t *testing.T, base, path, pref string) (int, string, string) {
	t.Helper()
	method, body := http.MethodGet, ""
	if pref != "" {
		method, body = http.MethodPost, pref
	}
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, normalizeDecision(t, raw), resp.Header.Get("P3P")
}

// runReplicationConformance seeds a leader with the conformance corpus,
// catches a follower up, and demands byte-identical normalized /matchpolicy
// and /check decisions — including the P3P compact-policy header — for
// every corpus policy x preference x engine.
func runReplicationConformance(t *testing.T) {
	policies := readConformanceDir(t, "policies")
	preferences := readConformanceDir(t, "preferences")

	_, leader := newLeader(t)
	const tenant = "conf.example"
	if err := server.NewClient(leader.URL).CreateSite(tenant); err != nil {
		t.Fatal(err)
	}
	lc := server.NewClient(leader.URL + "/sites/" + tenant)
	var names []string
	for stem, xml := range policies {
		installed, err := lc.InstallPolicies(xml)
		if err != nil {
			t.Fatalf("install %s: %v", stem, err)
		}
		names = append(names, installed...)
	}
	if err := lc.InstallReferenceFile(refDocFor(names...)); err != nil {
		t.Fatal(err)
	}

	// Catch the follower up; with fault points armed the first rounds cut
	// the stream or abort the apply, so retry until the injected budget
	// is spent and the follower converges.
	node, err := New(Options{Leader: leader.URL, Tenants: []string{tenant}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = node.Sync(ctx)
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: %v", err)
		}
	}
	fs := httptest.NewServer(node)
	defer fs.Close()
	lbase := leader.URL + "/sites/" + tenant
	fbase := fs.URL + "/sites/" + tenant

	engines := []string{"native", "sql", "xtable", "xquery"}
	for prefStem, prefXML := range preferences {
		for _, pol := range names {
			for _, engine := range engines {
				q := url.Values{"policy": {pol}, "engine": {engine}}
				path := "/matchpolicy?" + q.Encode()
				ls, lb, lcp := decide(t, lbase, path, prefXML)
				fsc, fb, fcp := decide(t, fbase, path, prefXML)
				if ls != fsc || lb != fb || lcp != fcp {
					t.Errorf("/matchpolicy %s/%s/%s diverges:\nleader   %d %s [P3P %q]\nfollower %d %s [P3P %q]",
						prefStem, pol, engine, ls, lb, lcp, fsc, fb, fcp)
				}

				cq := url.Values{"url": {"/" + pol + "/index.html"}, "engine": {engine}}
				cpath := "/check?" + cq.Encode()
				ls, lb, lcp = decide(t, lbase, cpath, prefXML)
				fsc, fb, fcp = decide(t, fbase, cpath, prefXML)
				if ls != fsc || lb != fb || lcp != fcp {
					t.Errorf("/check %s/%s/%s diverges:\nleader   %d %s [P3P %q]\nfollower %d %s [P3P %q]",
						prefStem, pol, engine, ls, lb, lcp, fsc, fb, fcp)
				}
			}
		}
	}

	// Agent levels ride the compact fast path; they must agree too.
	for _, level := range []string{"apathetic", "mild", "paranoid"} {
		for _, pol := range names {
			q := url.Values{"url": {"/" + pol + "/index.html"}, "level": {level}, "engine": {"sql"}}
			path := "/check?" + q.Encode()
			ls, lb, lcp := decide(t, lbase, path, "")
			fsc, fb, fcp := decide(t, fbase, path, "")
			if ls != fsc || lb != fb || lcp != fcp {
				t.Errorf("/check level %s/%s diverges:\nleader   %d %s [P3P %q]\nfollower %d %s [P3P %q]",
					level, pol, ls, lb, lcp, fsc, fb, fcp)
			}
		}
	}
}

// TestReplicationConformance runs the suite on a clean stream.
func TestReplicationConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full leader/follower differential in -short mode")
	}
	runReplicationConformance(t)
}

// TestReplicationConformanceWithFaults re-runs the suite with the
// stream-drop and apply-failure points armed: catch-up rides through
// cut streams and aborted rounds, and the converged follower must still
// answer byte-identically.
func TestReplicationConformanceWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full leader/follower differential in -short mode")
	}
	faultkit.Reset()
	t.Cleanup(faultkit.Reset)
	if err := faultkit.Enable(faultkit.PointReplicaStream + ":error:times=2"); err != nil {
		t.Fatal(err)
	}
	if err := faultkit.Enable(faultkit.PointReplicaApply + ":error:after=2:times=1"); err != nil {
		t.Fatal(err)
	}
	runReplicationConformance(t)
}
