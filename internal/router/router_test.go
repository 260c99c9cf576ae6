package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p3pdb/internal/durable"
	"p3pdb/internal/registry"
	"p3pdb/internal/replica"
	"p3pdb/internal/server"
)

func polDoc(name string) string {
	return fmt.Sprintf(`<POLICY name=%q><STATEMENT><NON-IDENTIFIABLE/></STATEMENT></POLICY>`, name)
}

func refDocFor(names ...string) string {
	var b strings.Builder
	b.WriteString(`<META><POLICY-REFERENCES>`)
	for _, n := range names {
		fmt.Fprintf(&b, `<POLICY-REF about="#%s"><INCLUDE>/%s/*</INCLUDE></POLICY-REF>`, n, n)
	}
	b.WriteString(`</POLICY-REFERENCES></META>`)
	return b.String()
}

// newFleet stands up a seeded durable leader, one caught-up follower,
// and a probed router over both.
func newFleet(t *testing.T) (reg *registry.Registry, leader *httptest.Server, node *replica.Node, follower *httptest.Server, rt *Router, front *httptest.Server) {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err = registry.New(registry.Options{Durable: store})
	if err != nil {
		t.Fatal(err)
	}
	leader = httptest.NewServer(server.NewMulti(reg))
	t.Cleanup(func() { leader.Close(); reg.Close() })
	if err := server.NewClient(leader.URL).CreateSite("a.example"); err != nil {
		t.Fatal(err)
	}
	c := server.NewClient(leader.URL + "/sites/a.example")
	for _, p := range []string{"p1", "p2"} {
		if _, err := c.InstallPolicies(polDoc(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InstallReferenceFile(refDocFor("p1", "p2")); err != nil {
		t.Fatal(err)
	}

	node, err = replica.New(replica.Options{Leader: leader.URL, Tenants: []string{"a.example"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := node.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	follower = httptest.NewServer(node)
	t.Cleanup(follower.Close)

	rt, err = New(Options{Leader: leader.URL, Replicas: []string{follower.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe()
	front = httptest.NewServer(rt)
	t.Cleanup(front.Close)
	return reg, leader, node, follower, rt, front
}

// checkVia asks the router for one decision and returns status and the
// allowed verdict (only meaningful on 200).
func checkVia(t *testing.T, front string) (int, bool) {
	t.Helper()
	resp, err := http.Get(front + "/sites/a.example/check?url=/p1/index.html&level=mild")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false
	}
	var v struct {
		Allowed bool `json:"allowed"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("check body: %v\n%s", err, body)
	}
	return resp.StatusCode, v.Allowed
}

// TestClassify pins the read/write split the router routes by.
func TestClassify(t *testing.T) {
	cases := []struct {
		method, path string
		tenant       string
		read         bool
	}{
		{http.MethodGet, "/sites/a.example/policies", "a.example", true},
		{http.MethodPost, "/sites/a.example/policies", "a.example", false},
		{http.MethodPost, "/sites/a.example/check", "a.example", true},
		{http.MethodPost, "/sites/a.example/matchall", "a.example", true},
		{http.MethodPost, "/sites/a.example/check", "a.example", true},
		{http.MethodGet, "/sites/a.example/check", "a.example", true},
		{http.MethodPost, "/sites/a.example/reference", "a.example", false},
		{http.MethodDelete, "/sites/a.example/policies/p1", "a.example", false},
		{http.MethodPut, "/sites/b.example", "b.example", false},
		{http.MethodDelete, "/sites/b.example", "b.example", false},
		{http.MethodGet, "/sites", "", true},
		{http.MethodGet, "/sites/a.example/wal", "a.example", true},
		// Bare paths resolve the tenant from the Host header; httptest
		// defaults it to example.com.
		{http.MethodGet, "/metrics", "example.com", true},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		tenant, _, read := classify(r)
		if tenant != c.tenant || read != c.read {
			t.Errorf("%s %s: got (%q, read=%v), want (%q, read=%v)",
				c.method, c.path, tenant, read, c.tenant, c.read)
		}
	}

	// Host routing: bare paths resolve the tenant from the Host header.
	r := httptest.NewRequest(http.MethodPost, "/matchpolicy", nil)
	r.Host = "A.Example:443"
	tenant, _, read := classify(r)
	if tenant != "a.example" || !read {
		t.Errorf("host routing: got (%q, read=%v)", tenant, read)
	}
}

// TestFailover kills the leader mid-load: reads may briefly 5xx while
// the router notices, but every non-5xx decision must match the
// pre-failure verdict — zero decision flips — and end up served by the
// caught-up follower. Writes refuse with a typed 503.
func TestFailover(t *testing.T) {
	_, leader, _, _, rt, front := newFleet(t)

	status, baseline := checkVia(t, front.URL)
	if status != http.StatusOK {
		t.Fatalf("baseline check: %d", status)
	}

	leader.Close()
	sawRecovery := false
	for i := 0; i < 50; i++ {
		status, allowed := checkVia(t, front.URL)
		switch {
		case status >= 500:
			// The router is allowed a 5xx while it learns; help it along.
			rt.Probe()
		case status == http.StatusOK:
			if allowed != baseline {
				t.Fatalf("request %d: decision flipped from %v to %v", i, baseline, allowed)
			}
			sawRecovery = true
		default:
			t.Fatalf("request %d: unexpected status %d", i, status)
		}
	}
	if !sawRecovery {
		t.Fatal("reads never drained onto the follower")
	}

	// Writes cannot fail over: the leader is the only journal. A probe
	// round (the ticker's job in production) marks the leader down.
	rt.Probe()
	resp, err := http.Post(front.URL+"/sites/a.example/policies", "application/xml", strings.NewReader(polDoc("p9")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "leader-unavailable") {
		t.Fatalf("write after leader death: %d %s", resp.StatusCode, body)
	}

	if st := rt.Status(); len(st) != 2 {
		t.Fatalf("router status: %+v", st)
	}
}

// TestLagGateKeepsStaleFollowerOut writes past a stopped follower: the
// router must route reads to the leader while the follower lags, and
// once the leader dies the stale follower must stay out of rotation
// (503, not stale data).
func TestLagGateKeepsStaleFollowerOut(t *testing.T) {
	_, leader, _, _, rt, front := newFleet(t)

	// Advance the leader past the follower's applied LSN.
	c := server.NewClient(leader.URL + "/sites/a.example")
	if _, err := c.InstallPolicies(polDoc("p3")); err != nil {
		t.Fatal(err)
	}
	rt.Probe()

	// Reads must come from the leader: the response set includes p3,
	// which only the leader has.
	for i := 0; i < 10; i++ {
		resp, err := http.Get(front.URL + "/sites/a.example/policies")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "p3") {
			t.Fatalf("read %d served stale data: %d %s", i, resp.StatusCode, body)
		}
	}

	// Leader dies with the follower still behind: its last LSN map is
	// frozen, the follower does not clear it, reads refuse rather than
	// serve stale decisions.
	leader.Close()
	rt.Probe()
	resp, err := http.Get(front.URL + "/sites/a.example/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "no-backend") {
		t.Fatalf("stale follower entered rotation: %d %s", resp.StatusCode, body)
	}
}

// TestRouterEndpoints covers the router's own health and status faces.
func TestRouterEndpoints(t *testing.T) {
	_, _, _, _, _, front := newFleet(t)
	for _, path := range []string{"/router/healthz", "/router/readyz", "/router/status"} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	var st []BackendStatus
	resp, err := http.Get(front.URL + "/router/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].Role != "leader" || st[1].Role != "replica" {
		t.Fatalf("router status shape: %+v", st)
	}
	if !st[0].Healthy || !st[1].Healthy {
		t.Fatalf("backends unhealthy after probe: %+v", st)
	}
}

// TestProbeLoopAndServer exercises the background probe loop and the
// ListenAndServe wrapper.
func TestProbeLoopAndServer(t *testing.T) {
	_, leader, _, follower, _, _ := newFleet(t)
	rt2, err := New(Options{Leader: leader.URL, Replicas: []string{follower.URL}, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rt2.Start()
	defer rt2.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt2.Status()
		if len(st) == 2 && st[0].Healthy && st[1].Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never marked backends healthy: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv := rt2.HTTPServer(":0"); srv.Handler == nil || srv.Addr != ":0" {
		t.Fatalf("HTTPServer wrapper wrong: %+v", srv)
	}
}
