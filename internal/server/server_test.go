package server

import (
	"net/http"
	"net/http/httptest"
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

func TestEndToEndMatch(t *testing.T) {
	_, c := testServer(t)
	installVolga(t, c)
	c.Preference = appel.JanePreferenceXML
	for _, engine := range []string{"native", "sql", "xtable", "xquery"} {
		c.Engine = engine
		d, err := c.CanVisit("/books/42")
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if d.Behavior != "request" || d.PolicyName != "volga" {
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
	c.Preference = `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
	  <appel:RULE behavior="block" description="no contact purpose">
	    <POLICY><STATEMENT><PURPOSE appel:connective="or"><contact required="*"/></PURPOSE></STATEMENT></POLICY>
	  </appel:RULE>
	  <appel:OTHERWISE behavior="request"/>
	</appel:RULESET>`
	d, err := c.CanVisit("/checkout")
	if err != nil {
		t.Fatal(err)
	}
	if d.Behavior != "block" || d.RuleDescription != "no contact purpose" {
		t.Errorf("decision: %+v", d)
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
	c.Preference = appel.JanePreferenceXML
	if _, err := c.CanVisit("/x"); err == nil {
		t.Error("match without reference file should fail")
	}
	// Bad policy document.
	if _, err := c.InstallPolicies("<not-a-policy/>"); err == nil {
		t.Error("bad policy should fail")
	}
	// Bad engine name.
	resp, err := http.Post(ts.URL+"/match?uri=/x&engine=warp", "application/xml", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad engine: status %d", resp.StatusCode)
	}
	// Missing uri parameter.
	resp, err = http.Post(ts.URL+"/match", "application/xml", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing uri: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /match: status %d", resp.StatusCode)
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
	_, c := testServer(t)
	installVolga(t, c)
	medium, ok := workload.PreferenceByLevel("Medium")
	if !ok {
		t.Fatal("no Medium preference")
	}
	c.Preference = medium.XML
	c.Engine = "xtable"
	_, err := c.CanVisit("/x")
	if err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("expected 422 for too-complex preference, got %v", err)
	}
	// The SQL engine handles the same preference.
	c.Engine = "sql"
	if _, err := c.CanVisit("/x"); err != nil {
		t.Errorf("sql engine should handle Medium: %v", err)
	}
	// The SQL engine has the same statement limits; they are checked on
	// the statement it builds, and a body that outgrows them is the same
	// 422 on /match and on a /check that falls back to the engine.
	c.Preference = nestedPreference(9)
	if _, err := c.CanVisit("/x"); err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("/match: expected 422 for a rule beyond the SQL engine's block limit, got %v", err)
	}
	if _, _, err := c.Check(CheckRequest{URL: "/x", Preference: c.Preference}); err == nil || !strings.Contains(err.Error(), "422") {
		t.Errorf("/check: expected 422 for a rule beyond the SQL engine's block limit, got %v", err)
	}
	c.Preference = nestedPreference(8)
	if _, err := c.CanVisit("/x"); err != nil {
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
