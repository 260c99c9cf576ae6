package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3pdb/internal/core"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/registry"
	"p3pdb/internal/workload"
)

// checkTestSite builds a workload-backed site and its HTTP server.
func checkTestSite(t testing.TB, seed int64) (*core.Site, *workload.Dataset, *Client) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(seed)
	if err := site.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	return site, d, NewClient(ts.URL)
}

// readConformancePreferences loads the shared conformance corpus's
// preference side (curated APPEL edge cases: exact connectives, empty
// expressions, foreign namespaces, missing catch-alls).
func readConformancePreferences(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "core", "testdata", "conformance", "preferences")
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
		t.Fatal("conformance corpus is empty")
	}
	return out
}

// TestCheckHTTPConformance is the protocol conformance suite: /check is
// driven over HTTP through reference-file lookup, compact pre-decision,
// and full-match fallback, for every conformance-corpus preference and
// all three agent levels against every workload policy. The invariant
// is conservatism: whenever the response says the fast path allowed,
// none of the four engines may block that (preference, policy) pair.
func TestCheckHTTPConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP differential in -short mode")
	}
	site, d, c := checkTestSite(t, 7)

	type pref struct{ level, xml string }
	prefs := []pref{{"apathetic", ""}, {"mild", ""}, {"paranoid", ""}}
	for stem, xml := range readConformancePreferences(t) {
		prefs = append(prefs, pref{stem, xml})
	}

	fastAllows := 0
	for _, p := range prefs {
		for _, pol := range d.Policies {
			res, cpHeader, err := c.Check(CheckRequest{
				URL: d.URIFor(pol.Name), Level: p.level, Preference: p.xml,
			})
			if err != nil {
				// Corpus preferences without a catch-all error in full
				// matching; the endpoint must surface that, never a
				// fabricated allow. (Agent levels always succeed.)
				if p.xml == "" {
					t.Errorf("%s/%s: %v", p.level, pol.Name, err)
				}
				continue
			}
			if res.URL == nil || res.URL.PolicyName != pol.Name {
				t.Fatalf("%s/%s: wrong applicable policy: %+v", p.level, pol.Name, res.URL)
			}
			if res.URL.CP == "" || !strings.Contains(cpHeader, `CP="`) {
				t.Errorf("%s/%s: missing compact policy (body %q, header %q)",
					p.level, pol.Name, res.URL.CP, cpHeader)
			}
			if !res.URL.FastPath {
				if res.URL.Decision == nil {
					t.Errorf("%s/%s: fallback carried no decision", p.level, pol.Name)
				}
				continue
			}
			fastAllows++
			if !res.Allowed {
				t.Errorf("%s/%s: fast path may only prove allows", p.level, pol.Name)
			}
			prefXML := p.xml
			if prefXML == "" {
				wp, ok := resolvePreference(p.level)
				if !ok {
					t.Fatalf("unresolvable level %s", p.level)
				}
				prefXML = wp.XML
			}
			for _, engine := range core.Engines {
				full, err := site.MatchPolicy(prefXML, pol.Name, engine)
				if err != nil {
					continue // engine-specific rejection (e.g. xtable too-complex)
				}
				if full.Blocked() {
					t.Errorf("%s/%s: fast allow contradicted by %v (rule %d)",
						p.level, pol.Name, engine, full.RuleIndex)
				}
			}
		}
	}
	if fastAllows == 0 {
		t.Fatal("no request took the fast path over HTTP")
	}
}

// TestCheckHTTPCookieAndURL exercises the two-part check: the response's
// overall verdict is the conjunction, and each part resolves through its
// own reference-file rule set.
func TestCheckHTTPCookieAndURL(t *testing.T) {
	_, d, c := checkTestSite(t, 3)
	pol := d.Policies[0].Name
	res, _, err := c.Check(CheckRequest{
		URL: d.URIFor(pol), Cookie: d.CookieFor(pol), Level: "apathetic",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.URL == nil || res.Cookie == nil {
		t.Fatalf("missing parts: %+v", res)
	}
	if res.URL.PolicyName != pol || res.Cookie.PolicyName != pol {
		t.Errorf("parts resolved to %q/%q, want %q", res.URL.PolicyName, res.Cookie.PolicyName, pol)
	}
	if res.Allowed != (res.URL.Allowed && res.Cookie.Allowed) {
		t.Errorf("overall allowed is not the conjunction: %+v", res)
	}
	// An excluded cookie pattern must fail resolution.
	if _, _, err := c.Check(CheckRequest{Cookie: pol + "-internal-tracker", Level: "apathetic"}); err == nil {
		t.Error("cookie under COOKIE-EXCLUDE: want resolution error")
	}
	// Unknown level and missing targets are client errors.
	if _, _, err := c.Check(CheckRequest{URL: d.URIFor(pol), Level: "nonsense"}); err == nil {
		t.Error("unknown level: want 400")
	}
	if _, _, err := c.Check(CheckRequest{Level: "mild"}); err == nil {
		t.Error("no url or cookie: want 400")
	}
}

// TestCheckHTTPBadRequests pins the endpoint's client-error surface.
func TestCheckHTTPBadRequests(t *testing.T) {
	_, d, c := checkTestSite(t, 19)
	target := d.URIFor(d.Policies[0].Name)
	// POSTing a blank preference is a 400, not an empty-document match.
	if _, _, err := c.Check(CheckRequest{URL: target, Preference: "   "}); err == nil {
		t.Error("blank POSTed preference: want 400")
	}
	// Unknown engines are rejected before any matching runs.
	if _, _, err := c.Check(CheckRequest{URL: target, Level: "mild", Engine: "quantum"}); err == nil {
		t.Error("unknown engine: want 400")
	}
	// JRC profile names resolve case-insensitively alongside attitudes.
	res, _, err := c.Check(CheckRequest{URL: target, Level: "very low"})
	if err != nil {
		t.Fatalf("JRC level name: %v", err)
	}
	if !res.URL.FastPath {
		t.Error("Very Low has no block rules; every check must fast-path")
	}
}

// TestCheckHTTPForcedFallback is the outage drill over HTTP: with
// fastpath.summary armed, /check still answers 200 with the full
// engine's verdict and reports the forced fallback.
func TestCheckHTTPForcedFallback(t *testing.T) {
	faultkit.Reset()
	t.Cleanup(faultkit.Reset)
	_, d, c := checkTestSite(t, 5)
	if err := faultkit.Enable(faultkit.PointFastpathSummary + ":error"); err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies[:3] {
		res, _, err := c.Check(CheckRequest{URL: d.URIFor(pol.Name), Level: "apathetic"})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if res.URL.FastPath || res.URL.FallbackReason != "forced" {
			t.Errorf("%s: want forced fallback, got %+v", pol.Name, res.URL)
		}
		if res.URL.Decision == nil {
			t.Errorf("%s: forced fallback carried no decision", pol.Name)
		}
	}
	if faultkit.Firings(faultkit.PointFastpathSummary) == 0 {
		t.Error("fault never fired")
	}
}

// TestCheckMultiTenant routes /sites/{name}/check through the
// MultiServer's prefix delegation: per-tenant reference files resolve
// independently and each tenant's CP header reflects its own policy.
func TestCheckMultiTenant(t *testing.T) {
	reg, err := registry.New(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMulti(reg))
	t.Cleanup(ts.Close)
	// Provision over the admin API, the way p3pload -setup does.
	admin := NewClient(ts.URL)
	for i, name := range []string{"alpha.example", "beta.example"} {
		if err := admin.CreateSite(name); err != nil {
			t.Fatal(err)
		}
		// Re-provisioning an existing tenant is tolerated.
		if err := admin.CreateSite(name); err != nil {
			t.Fatalf("re-create %s: %v", name, err)
		}
		tc := NewClient(ts.URL + "/sites/" + name)
		d := workload.Generate(int64(100 + i))
		for _, pol := range d.Policies {
			if _, err := tc.InstallPolicies(d.PolicyXML[pol.Name]); err != nil {
				t.Fatalf("%s: installing %s: %v", name, pol.Name, err)
			}
		}
		if err := tc.InstallReferenceFile(d.RefFile.String()); err != nil {
			t.Fatal(err)
		}
	}

	d := workload.Generate(100)
	pol := d.Policies[0].Name
	for _, tenant := range []string{"alpha.example", "beta.example"} {
		c := NewClient(ts.URL + "/sites/" + tenant)
		res, cpHeader, err := c.Check(CheckRequest{URL: d.URIFor(pol), Level: "paranoid"})
		if err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
		if res.URL.PolicyName != pol {
			t.Errorf("%s: resolved %q", tenant, res.URL.PolicyName)
		}
		if cpHeader == "" {
			t.Errorf("%s: no P3P header", tenant)
		}
	}
	// Unknown tenant is a JSON 404 from the registry layer.
	c := NewClient(ts.URL + "/sites/ghost.example")
	if _, _, err := c.Check(CheckRequest{URL: d.URIFor(pol), Level: "mild"}); err == nil {
		t.Error("unknown tenant: want 404")
	}
}

// TestClientTransportErrors drives every client method against a dead
// address and a non-JSON error body: all must return errors, none may
// fabricate a decision.
func TestClientTransportErrors(t *testing.T) {
	dead := NewClient("http://127.0.0.1:1")
	if _, _, err := dead.Check(CheckRequest{URL: "/x", Level: "mild"}); err == nil {
		t.Error("Check against dead address: want error")
	}
	if _, err := dead.Policies(); err == nil {
		t.Error("Policies: want error")
	}
	if _, err := dead.Analytics(); err == nil {
		t.Error("Analytics: want error")
	}
	if _, err := dead.FetchPolicy("x"); err == nil {
		t.Error("FetchPolicy: want error")
	}
	if _, err := dead.InstallPolicies("<POLICY/>"); err == nil {
		t.Error("InstallPolicies: want error")
	}
	if err := dead.InstallReferenceFile("<META/>"); err == nil {
		t.Error("InstallReferenceFile: want error")
	}
	if err := dead.CreateSite("x"); err == nil {
		t.Error("CreateSite: want error")
	}

	// A proxy answering plain text must still surface a status error.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream exploded", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	if _, _, err := NewClient(ts.URL).Check(CheckRequest{URL: "/x", Level: "mild"}); err == nil ||
		!strings.Contains(err.Error(), "502") {
		t.Errorf("non-JSON error body: got %v", err)
	}
}

// TestCheckPolicyFetchHeader asserts the client-centric fetch path also
// carries the compact form in the standard header.
func TestCheckPolicyFetchHeader(t *testing.T) {
	_, d, c := checkTestSite(t, 13)
	pol := d.Policies[0].Name
	resp, err := c.http.Get(c.base + "/policies/" + pol)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("P3P"); !strings.HasPrefix(got, `CP="`) {
		t.Errorf("policy fetch P3P header = %q", got)
	}
}
