package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/core"
	"p3pdb/internal/p3p"
	"p3pdb/internal/registry"
)

// multiFixture builds a sites dir with one tenant (a.example, serving
// the volga paper policy) and a MultiServer over it.
func multiFixture(t *testing.T) (*httptest.Server, *registry.Registry, string) {
	t.Helper()
	root := t.TempDir()
	writeTenantDir(t, root, "a.example")
	reg, err := registry.New(registry.Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMulti(reg))
	t.Cleanup(ts.Close)
	return ts, reg, root
}

func writeTenantDir(t *testing.T, root, name string) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "policies.xml"), []byte(p3p.VolgaPolicyXML), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := `<META xmlns="http://www.w3.org/2002/01/P3Pv1">
	  <POLICY-REFERENCES>
	    <POLICY-REF about="/P3P/Policies.xml#volga"><INCLUDE>/*</INCLUDE></POLICY-REF>
	  </POLICY-REFERENCES></META>`
	if err := os.WriteFile(filepath.Join(dir, "reference.xml"), []byte(ref), 0o644); err != nil {
		t.Fatal(err)
	}
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPathRouting(t *testing.T) {
	ts, _, _ := multiFixture(t)

	// The tenant's full single-site API is reachable under its prefix.
	resp, err := http.Get(ts.URL + "/sites/a.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	decodeBody(t, resp, &names)
	if len(names) != 1 || names[0] != "volga" {
		t.Fatalf("policies via prefix = %v", names)
	}

	resp, err = http.Post(ts.URL+"/sites/a.example/check?url=/books/1&engine=sql",
		"application/xml", strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("match via prefix: %d %s", resp.StatusCode, body)
	}
	var d CheckResponse
	decodeBody(t, resp, &d)
	if !d.Allowed || d.URL == nil || d.URL.PolicyName != "volga" {
		t.Errorf("decision = %+v", d)
	}
}

func TestMultiHostRouting(t *testing.T) {
	ts, _, _ := multiFixture(t)

	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/check?url=/books/1&engine=sql", strings.NewReader(appel.JanePreferenceXML))
	if err != nil {
		t.Fatal(err)
	}
	// Routing keys off the Host header, case-folded and port-stripped.
	req.Host = "A.EXAMPLE:8443"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("host-routed match: %d %s", resp.StatusCode, body)
	}
	var d CheckResponse
	decodeBody(t, resp, &d)
	if d.URL == nil || d.URL.PolicyName != "volga" {
		t.Errorf("decision = %+v", d)
	}
}

func TestMultiUnknownTenantJSON404(t *testing.T) {
	ts, _, _ := multiFixture(t)

	for _, url := range []string{
		ts.URL + "/sites/ghost.example/policies",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q, want JSON", url, ct)
		}
		var e apiError
		decodeBody(t, resp, &e)
		if e.Reason != "unknown-tenant" || e.Error == "" {
			t.Errorf("%s: body %+v", url, e)
		}
	}

	// Host-routed requests for unknown tenants get the same envelope.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/policies", nil)
	req.Host = "ghost.example"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("host-routed unknown tenant: %d", resp.StatusCode)
	}
	var e apiError
	decodeBody(t, resp, &e)
	if e.Reason != "unknown-tenant" {
		t.Errorf("host-routed body %+v", e)
	}

	// A malformed tenant name is a client error, not unknown.
	resp, err = http.Get(ts.URL + "/sites/bad..name/policies")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid name: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMultiAdminAPI(t *testing.T) {
	ts, _, _ := multiFixture(t)

	// List includes the on-disk tenant before it is ever loaded.
	resp, err := http.Get(ts.URL + "/sites")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	decodeBody(t, resp, &names)
	if len(names) != 1 || names[0] != "a.example" {
		t.Fatalf("sites = %v", names)
	}

	// Create a dynamic tenant and install a policy through its API.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/sites/dyn.example", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/sites/dyn.example/policies", "application/xml",
		strings.NewReader(p3p.VolgaPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install into dynamic tenant: %d", resp.StatusCode)
	}

	// Duplicate create conflicts.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/sites/dyn.example", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d", resp.StatusCode)
	}

	// Delete it; its prefix then 404s (no backing dir to reload from).
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/sites/dyn.example", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/sites/dyn.example/policies")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted tenant: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMultiReloadEndpoint(t *testing.T) {
	ts, _, root := multiFixture(t)

	// Load the tenant, then change its directory on disk.
	resp, err := http.Get(ts.URL + "/sites/a.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pol := strings.Replace(p3p.VolgaPolicyXML, `name="volga"`, `name="renamed"`, 1)
	if err := os.WriteFile(filepath.Join(root, "a.example", "policies.xml"), []byte(pol), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, "a.example", "reference.xml")); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Post(ts.URL+"/sites/a.example", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("reload: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/sites/a.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	decodeBody(t, resp, &names)
	if len(names) != 1 || names[0] != "renamed" {
		t.Errorf("policies after reload = %v", names)
	}
}

func TestMultiHealthAndReady(t *testing.T) {
	ts, _, _ := multiFixture(t)

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q", path, ct)
		}
		var body map[string]string
		decodeBody(t, resp, &body)
		if body["status"] == "" {
			t.Errorf("%s: body %v", path, body)
		}
	}
}

func TestSingleSiteHealthAndReadyJSON(t *testing.T) {
	ts, _ := testServer(t)
	for path, want := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
		var body map[string]string
		decodeBody(t, resp, &body)
		if body["status"] != want {
			t.Errorf("%s: status %q, want %q", path, body["status"], want)
		}
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	ts, _, root := multiFixture(t)
	writeTenantDir(t, root, "b.example")

	// Remove a policy through tenant b's API; tenant a is untouched.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sites/b.example/policies/volga", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete b's policy: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/sites/a.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	decodeBody(t, resp, &names)
	if len(names) != 1 || names[0] != "volga" {
		t.Errorf("tenant a after mutating b = %v", names)
	}
	resp, err = http.Get(ts.URL + "/sites/b.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	names = nil
	decodeBody(t, resp, &names)
	if len(names) != 0 {
		t.Errorf("tenant b = %v, want empty", names)
	}
}

// TestMultiEvictedTenantIsCollectable: once the registry lets a tenant
// go — evicted past MaxSites, or deleted — nothing in the HTTP layer may
// keep its site alive, or -max-sites would bound residency but not
// memory.
func TestMultiEvictedTenantIsCollectable(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, base string)
	}{
		{"evicted", func(t *testing.T, base string) { get(t, base+"/sites/b.example/check?url=/books/1") }},
		{"deleted", func(t *testing.T, base string) {
			req, _ := http.NewRequest(http.MethodDelete, base+"/sites/a.example", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: %d", resp.StatusCode)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			writeTenantDir(t, root, "a.example")
			writeTenantDir(t, root, "b.example")
			reg, err := registry.New(registry.Options{Dir: root, MaxSites: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewMulti(reg))
			t.Cleanup(ts.Close)

			get(t, ts.URL+"/sites/a.example/check?url=/books/1")
			freed := watchSite(t, reg, "a.example")
			tc.drop(t, ts.URL)
			for i := 0; i < 50 && !freed.Load(); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if !freed.Load() {
				t.Fatal("the dropped tenant's site is still reachable after 50 GC cycles")
			}
		})
	}
}

// get issues a GET that must answer 200.
func get(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
}

// watchSite sets a finalizer on a resident tenant's site and reports
// when it has run. The site pointer does not outlive the call.
func watchSite(t *testing.T, reg *registry.Registry, name string) *atomic.Bool {
	t.Helper()
	site, ok := reg.Lookup(name)
	if !ok {
		t.Fatalf("%s is not resident", name)
	}
	freed := new(atomic.Bool)
	runtime.SetFinalizer(site, func(*core.Site) { freed.Store(true) })
	return freed
}
