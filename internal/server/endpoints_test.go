package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"p3pdb/internal/appel"
)

func installBookstore(t testing.TB, c *Client) {
	t.Helper()
	policies := `<POLICIES xmlns="http://www.w3.org/2002/01/P3Pv1">` +
		`<POLICY name="strict"><STATEMENT>` +
		`<PURPOSE><current/></PURPOSE><RECIPIENT><ours/></RECIPIENT>` +
		`<RETENTION><stated-purpose/></RETENTION>` +
		`<DATA-GROUP><DATA ref="#user.name"/></DATA-GROUP>` +
		`</STATEMENT></POLICY>` +
		`<POLICY name="loose"><STATEMENT>` +
		`<PURPOSE><telemarketing/></PURPOSE><RECIPIENT><unrelated/></RECIPIENT>` +
		`<RETENTION><indefinitely/></RETENTION>` +
		`<DATA-GROUP><DATA ref="#user.home-info.telecom"/></DATA-GROUP>` +
		`</STATEMENT></POLICY>` +
		`</POLICIES>`
	if _, err := c.InstallPolicies(policies); err != nil {
		t.Fatal(err)
	}
	err := c.InstallReferenceFile(`<META xmlns="http://www.w3.org/2002/01/P3Pv1">
	  <POLICY-REFERENCES>
	    <POLICY-REF about="#strict"><INCLUDE>/account/*</INCLUDE><COOKIE-INCLUDE name="session*"/></POLICY-REF>
	    <POLICY-REF about="#loose"><INCLUDE>/*</INCLUDE><COOKIE-INCLUDE name="track*"/></POLICY-REF>
	  </POLICY-REFERENCES></META>`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckCookieEndpoint(t *testing.T) {
	ts, owner := testServer(t)
	installBookstore(t, owner)

	post := func(cookie string) (*CheckPartResponse, int) {
		resp, err := http.Post(ts.URL+"/check?cookie="+cookie, "application/xml",
			strings.NewReader(appel.JanePreferenceXML))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out CheckResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if out.Cookie == nil {
			return &CheckPartResponse{}, resp.StatusCode
		}
		return out.Cookie, resp.StatusCode
	}

	d, code := post("session_abc")
	if code != http.StatusOK || d.PolicyName != "strict" || !d.Allowed {
		t.Errorf("session cookie: %d %+v", code, d)
	}
	d, code = post("track_me")
	if code != http.StatusOK || d.PolicyName != "loose" || d.Allowed || d.Decision == nil || d.Decision.Behavior != "block" {
		t.Errorf("tracking cookie: %d %+v", code, d)
	}
	_, code = post("unknown_cookie")
	if code != http.StatusBadRequest {
		t.Errorf("uncovered cookie: %d", code)
	}
	_, code = post("")
	if code != http.StatusBadRequest {
		t.Errorf("missing cookie param: %d", code)
	}
}

func TestCompactEndpoint(t *testing.T) {
	ts, owner := testServer(t)
	installBookstore(t, owner)
	resp, err := http.Get(ts.URL + "/compact/loose")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	cp := string(body)
	for _, want := range []string{"TEL", "UNRa", "IND", "PHY"} {
		if !strings.Contains(cp, want) {
			t.Errorf("compact policy missing %q: %s", want, cp)
		}
	}
	resp2, err := http.Get(ts.URL + "/compact/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("missing policy: %d", resp2.StatusCode)
	}
}

func TestReferenceFetch(t *testing.T) {
	ts, owner := testServer(t)

	// Before installation: 404.
	resp, err := http.Get(ts.URL + "/reference")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /reference before install: %d", resp.StatusCode)
	}

	installBookstore(t, owner)
	resp, err = http.Get(ts.URL + "/reference")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "POLICY-REF") {
		t.Errorf("reference body: %s", body)
	}
}

func TestMatchPolicyEndpointErrors(t *testing.T) {
	ts, owner := testServer(t)
	installBookstore(t, owner)
	resp, err := http.Post(ts.URL+"/matchpolicy", "application/xml",
		strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing policy param: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/matchpolicy?policy=ghost", "application/xml",
		strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy: %d", resp.StatusCode)
	}
}
