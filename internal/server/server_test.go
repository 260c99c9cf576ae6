package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/core"
	"p3pdb/internal/p3p"
	"p3pdb/internal/workload"
)

func testServer(t testing.TB) (*httptest.Server, *Client) {
	t.Helper()
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(site))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func installVolga(t testing.TB, c *Client) {
	t.Helper()
	if _, err := c.InstallPolicies(p3p.VolgaPolicyXML); err != nil {
		t.Fatal(err)
	}
	err := c.InstallReferenceFile(`<META xmlns="http://www.w3.org/2002/01/P3Pv1">
	  <POLICY-REFERENCES>
	    <POLICY-REF about="/P3P/Policies.xml#volga"><INCLUDE>/*</INCLUDE></POLICY-REF>
	  </POLICY-REFERENCES></META>`)
	if err != nil {
		t.Fatal(err)
	}
}

// matchPolicy POSTs a preference to /matchpolicy, the door that always
// runs the engine, and decodes the full decision of a 200.
func matchPolicy(t testing.TB, base, policy, engine, pref string) (MatchResponse, int) {
	t.Helper()
	q := url.Values{"policy": {policy}, "engine": {engine}}
	resp, err := http.Post(base+"/matchpolicy?"+q.Encode(), "application/xml", strings.NewReader(pref))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestEndToEndMatch(t *testing.T) {
	ts, c := testServer(t)
	installVolga(t, c)
	pref := appel.JanePreferenceXML
	for _, engine := range []string{"native", "sql", "xtable", "xquery"} {
		c.Engine = engine
		res, _, err := c.Check(CheckRequest{URL: "/books/42", Preference: pref})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !res.Allowed || res.URL.PolicyName != "volga" {
			t.Errorf("%s: %+v", engine, res.URL)
		}
		d, code := matchPolicy(t, ts.URL, res.URL.PolicyName, engine, pref)
		if code != http.StatusOK || d.Behavior != "request" || d.PolicyName != "volga" {
			t.Errorf("%s: %+v", engine, d)
		}
		if d.Engine != engine {
			t.Errorf("engine echoed as %q", d.Engine)
		}
	}
}

func TestPoliciesListAndFetch(t *testing.T) {
	_, c := testServer(t)
	installVolga(t, c)
	names, err := c.Policies()
	if err != nil || len(names) != 1 || names[0] != "volga" {
		t.Fatalf("Policies: %v %v", names, err)
	}
	xml, err := c.FetchPolicy("volga")
	if err != nil || !strings.Contains(xml, "<POLICY") {
		t.Fatalf("FetchPolicy: %v", err)
	}
	if _, err := c.FetchPolicy("ghost"); err == nil {
		t.Error("missing policy should 404")
	}
}

func TestBlockedDecisionAndAnalytics(t *testing.T) {
	_, c := testServer(t)
	installVolga(t, c)
	pref := `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
	  <appel:RULE behavior="block" description="no contact purpose">
	    <POLICY><STATEMENT><PURPOSE appel:connective="or"><contact required="*"/></PURPOSE></STATEMENT></POLICY>
	  </appel:RULE>
	  <appel:OTHERWISE behavior="request"/>
	</appel:RULESET>`
	res, _, err := c.Check(CheckRequest{URL: "/checkout", Preference: pref})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.URL.Decision; res.Allowed || d == nil || d.Behavior != "block" || d.RuleDescription != "no contact purpose" {
		t.Errorf("decision: %+v", res.URL)
	}
	rows, err := c.Analytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Policy != "volga" || rows[0].Blocks != 1 {
		t.Errorf("analytics: %+v", rows)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, c := testServer(t)
	// Match without a reference file.
	pref := appel.JanePreferenceXML
	if _, _, err := c.Check(CheckRequest{URL: "/x", Preference: pref}); err == nil {
		t.Error("match without reference file should fail")
	}
	// Bad policy document.
	if _, err := c.InstallPolicies("<not-a-policy/>"); err == nil {
		t.Error("bad policy should fail")
	}
	// Bad engine name.
	resp, err := http.Post(ts.URL+"/check?url=/x&engine=warp", "application/xml", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: status %d", resp.StatusCode)
	}
	// Missing url parameter.
	resp, err = http.Post(ts.URL+"/check", "application/xml", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/matchall")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /matchall: status %d", resp.StatusCode)
	}
	// Health check.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestDeletePolicy(t *testing.T) {
	ts, c := testServer(t)
	installVolga(t, c)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/policies/volga", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp.StatusCode)
	}
	names, err := c.Policies()
	if err != nil || len(names) != 0 {
		t.Errorf("after delete: %v %v", names, err)
	}
}

func TestTooComplexPreferenceOverHTTP(t *testing.T) {
	ts, c := testServer(t)
	installVolga(t, c)
	medium, ok := workload.PreferenceByLevel("Medium")
	if !ok {
		t.Fatal("no Medium preference")
	}
	pref := medium.XML
	c.Engine = "xtable"
	_, _, err := c.Check(CheckRequest{URL: "/x", Preference: pref})
	if err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("expected 422 for too-complex preference, got %v", err)
	}
	// The SQL engine handles the same preference.
	c.Engine = "sql"
	if _, _, err := c.Check(CheckRequest{URL: "/x", Preference: pref}); err != nil {
		t.Errorf("sql engine should handle Medium: %v", err)
	}
	// The SQL engine has the same statement limits; they are checked on
	// the statement it builds, and a body that outgrows them is the same
	// 422 on /matchpolicy and on a /check that falls back to the engine.
	pref = nestedPreference(9)
	if _, code := matchPolicy(t, ts.URL, "volga", "sql", pref); code != http.StatusUnprocessableEntity {
		t.Errorf("/matchpolicy: expected 422 for a rule beyond the SQL engine's block limit, got %d", code)
	}
	if _, _, err := c.Check(CheckRequest{URL: "/x", Preference: pref}); err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("/check: expected 422 for a rule beyond the SQL engine's block limit, got %v", err)
	}
	pref = nestedPreference(8)
	if _, _, err := c.Check(CheckRequest{URL: "/x", Preference: pref}); err != nil {
		t.Errorf("a rule just under the block limit should run: %v", err)
	}
}

// nestedPreference is one block rule whose POLICY expression carries the
// given number of STATEMENT expressions, each with six and-connected
// PURPOSE values: one SQL query block per statement and per value, so
// nine statements exceed the relational engine's 64-block limit. The
// non-and connective puts it outside the /check fast path.
func nestedPreference(statements int) string {
	return `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1"` +
		` xmlns="http://www.w3.org/2002/01/P3Pv1">` +
		`<appel:RULE behavior="block"><POLICY appel:connective="non-and">` +
		strings.Repeat(`<STATEMENT><PURPOSE appel:connective="and">`+
			`<current/><admin/><develop/><contact/><telemarketing/><individual-decision/>`+
			`</PURPOSE></STATEMENT>`, statements) +
		`</POLICY></appel:RULE><appel:OTHERWISE behavior="request"/></appel:RULESET>`
}

// failingBody is a request body that breaks off mid-read.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestReadBodyStatus: a body that fails to read is the client's
// malformed request, a 400; only a body past maxBodyBytes is a 413.
func TestReadBodyStatus(t *testing.T) {
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(site)
	for _, path := range []string{"/check?url=/x", "/policies"} {
		for _, c := range []struct {
			body io.Reader
			want int
		}{
			{failingBody{}, http.StatusBadRequest},
			{strings.NewReader(strings.Repeat("x", maxBodyBytes+1)), http.StatusRequestEntityTooLarge},
		} {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, c.body))
			if w.Code != c.want {
				t.Errorf("POST %s with %T: status %d, want %d (%s)", path, c.body, w.Code, c.want, w.Body)
			}
		}
	}
}
