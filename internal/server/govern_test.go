package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/core"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/p3p"
)

// governedServer builds a server with explicit site/server options.
func governedServer(t testing.TB, siteOpts core.Options, srvOpts Options) *httptest.Server {
	t.Helper()
	site, err := core.NewSiteWithOptions(siteOpts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(site, srvOpts))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.InstallPolicies(p3pVolga); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallReferenceFile(volgaRef); err != nil {
		t.Fatal(err)
	}
	return ts
}

func postMatch(t testing.TB, ts *httptest.Server, path, pref string) (*http.Response, apiError) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/xml", strings.NewReader(pref))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return resp, e
}

// TestInjectedRelDBFaultYieldsStructured5xx is the acceptance check: a
// fault injected into reldb query execution during /matchpolicy comes back as
// a structured 503 with the fault-injected reason, not a 200 and not an
// opaque 400.
func TestInjectedRelDBFaultYieldsStructured5xx(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	ts := governedServer(t, core.Options{}, Options{})
	if err := faultkit.Enable(faultkit.PointRelDBQuery + ":error"); err != nil {
		t.Fatal(err)
	}
	resp, e := postMatch(t, ts, "/matchpolicy?policy=volga&engine=sql", appel.JanePreferenceXML)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %+v", resp.StatusCode, e)
	}
	if e.Reason != "fault-injected" {
		t.Fatalf("reason = %q, want fault-injected (error %q)", e.Reason, e.Error)
	}
	if !strings.Contains(resp.Header.Get("Server-Timing"), "aborted") {
		t.Fatalf("Server-Timing lacks aborted entry: %q", resp.Header.Get("Server-Timing"))
	}

	// Disarmed, the same request succeeds.
	faultkit.Reset()
	resp2, err := http.Post(ts.URL+"/matchpolicy?policy=volga&engine=sql", "application/xml",
		strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after reset: status %d", resp2.StatusCode)
	}
}

// TestBudgetExceededIs503: a site budget of one step cannot complete any
// match; the server reports 503 budget-exceeded, distinguishing "spent
// too much" from a timeout.
func TestBudgetExceededIs503(t *testing.T) {
	ts := governedServer(t, core.Options{MatchBudget: 1}, Options{})
	resp, e := postMatch(t, ts, "/matchpolicy?policy=volga&engine=sql", appel.JanePreferenceXML)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %+v", resp.StatusCode, e)
	}
	if e.Reason != "budget-exceeded" {
		t.Fatalf("reason = %q, want budget-exceeded", e.Reason)
	}
	// A /check that falls past the fast path spends the same budget in
	// the same engine and reports it the same way.
	resp, e = postMatch(t, ts, "/check?url=/books/1&engine=sql", nestedPreference(2))
	if resp.StatusCode != http.StatusServiceUnavailable || e.Reason != "budget-exceeded" {
		t.Fatalf("/check: status %d reason %q, want 503 budget-exceeded", resp.StatusCode, e.Reason)
	}
}

// TestDeadlineExceededIs504: a request timeout shorter than an injected
// evaluation latency turns into 504 deadline-exceeded — the same
// underlying governor as cancellation, but distinguishable by clients.
func TestDeadlineExceededIs504(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	ts := governedServer(t, core.Options{}, Options{RequestTimeout: 20 * time.Millisecond})
	// Sleep past the deadline inside conversion; the meter's next poll
	// sees the expired context.
	if err := faultkit.Enable(faultkit.PointConvFill + ":latency:60ms"); err != nil {
		t.Fatal(err)
	}
	resp, e := postMatch(t, ts, "/matchpolicy?policy=volga&engine=sql", appel.JanePreferenceXML)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %+v", resp.StatusCode, e)
	}
	if e.Reason != "deadline-exceeded" {
		t.Fatalf("reason = %q, want deadline-exceeded", e.Reason)
	}
}

// TestMatchAllPartialFailure: per-policy faults surface in the matchall
// response's errors array while the completed decisions still come back
// with a 200.
func TestMatchAllPartialFailure(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	site, err := core.NewSiteWithOptions(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if _, err := c.InstallPolicies(p3pVolga); err != nil {
		t.Fatal(err)
	}

	// volga is the only policy; failing its conversion fails the whole
	// batch — exercise the all-failed path first.
	if err := faultkit.Enable(faultkit.PointConvFill + ":error"); err != nil {
		t.Fatal(err)
	}
	resp, e := postMatch(t, ts, "/matchall?engine=xtable", appel.JanePreferenceXML)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-failed batch: status %d, want 503; %+v", resp.StatusCode, e)
	}
	if e.Reason != "fault-injected" || len(e.Errors) != 1 {
		t.Fatalf("all-failed batch: %+v", e)
	}

	// Disarmed: full success, no errors array.
	faultkit.Reset()
	resp2, err := http.Post(ts.URL+"/matchall?engine=xtable", "application/xml",
		strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("clean batch: status %d", resp2.StatusCode)
	}
	var mr MatchAllResponse
	if err := json.NewDecoder(resp2.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Decisions) != 1 || len(mr.Errors) != 0 {
		t.Fatalf("clean batch: %+v", mr)
	}
}

// TestHTTPServerHasTimeouts: the listener the binary deploys must carry
// a read-header timeout — the seed shipped a bare ListenAndServe.
func TestHTTPServerHasTimeouts(t *testing.T) {
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(site).HTTPServer(":0")
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("HTTPServer has no ReadHeaderTimeout")
	}
	if srv.Handler == nil {
		t.Fatal("HTTPServer has no handler")
	}
}

var p3pVolga = p3p.VolgaPolicyXML

const volgaRef = `<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <POLICY-REF about="/P3P/Policies.xml#volga"><INCLUDE>/*</INCLUDE></POLICY-REF>
  </POLICY-REFERENCES></META>`
