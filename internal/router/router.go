// Package router fronts a replicated p3pdb deployment (DESIGN.md §12):
// one leader taking writes plus any number of read-only followers
// tailing its WAL. Requests are classified as reads or writes by
// endpoint; writes always go to the leader, reads are spread across
// caught-up backends by rendezvous (highest-random-weight) hashing of
// the tenant name with a bounded-load cap, so one hot tenant cannot
// pile all its traffic on a single node while cold tenants still get
// stable placement (and therefore warm decision caches).
//
// Health is probed two ways: /readyz decides whether a backend takes
// traffic at all, and /replication/status yields per-tenant LSNs used
// to keep lagging followers out of rotation. The leader's LSN map is
// frozen when the leader stops answering, so failover only drains onto
// followers that had caught up to the last position the leader
// reported — a follower that was already behind stays out.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p3pdb/internal/obs"
	"p3pdb/internal/registry"
	"p3pdb/internal/server"
)

// Router observability, surfaced on the router's /metrics as router.*.
var (
	obsRouted      = obs.GetCounter("router.requests_routed")
	obsWrites      = obs.GetCounter("router.writes_to_leader")
	obsFailovers   = obs.GetCounter("router.leader_unavailable")
	obsNoBackend   = obs.GetCounter("router.no_backend")
	obsProbeRounds = obs.GetCounter("router.probe_rounds")
	obsEligible    = obs.GetGauge("router.eligible_backends")
)

// Options configures a Router.
type Options struct {
	// Leader is the base URL of the write leader (required).
	Leader string
	// Replicas are base URLs of read-only followers.
	Replicas []string
	// ProbeInterval is how often Start's loop re-probes backends
	// (default 500ms).
	ProbeInterval time.Duration
	// MaxLag is the most records a follower may trail the leader's last
	// known LSN and still serve a tenant's reads (default 0: followers
	// must be fully caught up).
	MaxLag uint64
	// BoundFactor caps per-backend load at BoundFactor times the mean
	// in-flight requests across eligible backends (default 1.25, the
	// classic bounded-load constant).
	BoundFactor float64
	// Client probes backends (default: 2s-timeout client).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.BoundFactor <= 1 {
		o.BoundFactor = 1.25
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Second}
	}
	return o
}

// backend is one upstream node: the leader or a follower.
type backend struct {
	rawURL string
	leader bool
	proxy  *httputil.ReverseProxy

	healthy  atomic.Bool
	inflight atomic.Int64
	served   atomic.Int64
	errored  atomic.Int64

	mu   sync.Mutex
	lsns map[string]uint64 // tenant -> LSN last reported by this backend
}

// lsnFor returns the backend's last reported LSN for a tenant.
func (b *backend) lsnFor(tenant string) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lsn, ok := b.lsns[tenant]
	return lsn, ok
}

// Router is the http.Handler fronting the fleet.
type Router struct {
	opts     Options
	leader   *backend
	backends []*backend // leader first, then replicas

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a Router; call Probe (or Start) before serving so backends
// have a known health state.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if opts.Leader == "" {
		return nil, fmt.Errorf("router: leader URL required")
	}
	rt := &Router{opts: opts}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	lb, err := rt.newBackend(opts.Leader, true)
	if err != nil {
		return nil, err
	}
	rt.leader = lb
	rt.backends = append(rt.backends, lb)
	for _, raw := range opts.Replicas {
		fb, err := rt.newBackend(raw, false)
		if err != nil {
			return nil, err
		}
		rt.backends = append(rt.backends, fb)
	}
	return rt, nil
}

func (rt *Router) newBackend(raw string, leader bool) (*backend, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("router: bad backend URL %q", raw)
	}
	b := &backend{rawURL: strings.TrimRight(raw, "/"), leader: leader, lsns: map[string]uint64{}}
	b.proxy = httputil.NewSingleHostReverseProxy(u)
	b.proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		// A refused or mid-flight-dropped connection marks the backend
		// down immediately rather than waiting for the next probe.
		b.healthy.Store(false)
		b.errored.Add(1)
		writeJSON(w, http.StatusBadGateway, map[string]string{
			"error":  fmt.Sprintf("backend %s unreachable: %v", b.rawURL, err),
			"reason": "backend-unreachable",
		})
	}
	return b, nil
}

// Probe refreshes every backend's health and LSN map once,
// synchronously. Start runs it on a loop; tests call it directly for
// deterministic state.
func (rt *Router) Probe() {
	obsProbeRounds.Inc()
	for _, b := range rt.backends {
		rt.probeBackend(b)
	}
	obsEligible.Set(int64(rt.countEligible()))
}

func (rt *Router) probeBackend(b *backend) {
	resp, err := rt.opts.Client.Get(b.rawURL + "/readyz")
	if err != nil {
		b.healthy.Store(false)
		return
	}
	resp.Body.Close()
	b.healthy.Store(resp.StatusCode < 300)

	// LSNs refresh best-effort and freeze on failure: a dead leader's
	// last map is exactly the bar failover candidates must clear.
	resp, err = rt.opts.Client.Get(b.rawURL + "/replication/status")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var st server.ReplicationStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	b.mu.Lock()
	for name, ts := range st.Tenants {
		b.lsns[name] = ts.LSN
	}
	b.mu.Unlock()
}

// eligible reports whether a backend may serve reads for a tenant: the
// leader needs only health, a follower must also have caught up to the
// leader's last known LSN within MaxLag. An unknown tenant (no LSN
// reported by either side) rides on health alone — there is nothing to
// lag behind.
func (rt *Router) eligible(b *backend, tenant string) bool {
	if !b.healthy.Load() {
		return false
	}
	if b.leader || tenant == "" {
		return true
	}
	want, ok := rt.leader.lsnFor(tenant)
	if !ok {
		return true
	}
	have, ok := b.lsnFor(tenant)
	if !ok {
		return want <= rt.opts.MaxLag
	}
	return have+rt.opts.MaxLag >= want
}

func (rt *Router) countEligible() int {
	n := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// rendezvous scores a backend for a tenant: fnv64a(tenant NUL url).
func rendezvous(tenant, url string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(url))
	return h.Sum64()
}

// pick chooses the read backend for a tenant: eligible backends in
// rendezvous order, first one under the bounded-load cap, falling back
// to the top-ranked one when all are saturated.
func (rt *Router) pick(tenant string) *backend {
	var eligible []*backend
	var total int64
	for _, b := range rt.backends {
		if rt.eligible(b, tenant) {
			eligible = append(eligible, b)
			total += b.inflight.Load()
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	sort.Slice(eligible, func(i, j int) bool {
		return rendezvous(tenant, eligible[i].rawURL) > rendezvous(tenant, eligible[j].rawURL)
	})
	cap := int64(math.Ceil(rt.opts.BoundFactor * float64(total+1) / float64(len(eligible))))
	for _, b := range eligible {
		if b.inflight.Load() < cap {
			return b
		}
	}
	return eligible[0]
}

// readEndpoints are tenant API endpoints that never mutate state even
// under POST (the matching endpoints accept POST bodies).
var readEndpoints = map[string]bool{
	"matchall": true, "matchpolicy": true,
	"check": true, "compact": true, "analytics": true, "durability": true,
	"wal": true, "replication": true,
	"metrics": true, "healthz": true, "readyz": true, "debug": true,
}

// classify splits a request into (tenant, endpoint, isRead).
func classify(r *http.Request) (tenant, endpoint string, read bool) {
	path := r.URL.Path
	if path == "/sites" || path == "/sites/" {
		// Tenant admin listing/creation: leader territory.
		return "", "sites", r.Method == http.MethodGet || r.Method == http.MethodHead
	}
	if rest, ok := strings.CutPrefix(path, "/sites/"); ok {
		name, sub, nested := strings.Cut(rest, "/")
		if !nested {
			// PUT/DELETE/POST /sites/{name} are tenant admin writes.
			return name, "sites", r.Method == http.MethodGet || r.Method == http.MethodHead
		}
		endpoint, _, _ = strings.Cut(sub, "/")
		tenant = name
	} else {
		endpoint, _, _ = strings.Cut(strings.TrimPrefix(path, "/"), "/")
		if norm, err := registry.Normalize(r.Host); err == nil {
			tenant = norm
		}
	}
	if readEndpoints[endpoint] {
		return tenant, endpoint, true
	}
	return tenant, endpoint, r.Method == http.MethodGet || r.Method == http.MethodHead
}

// ServeHTTP routes one request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/router/healthz":
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	case "/router/readyz":
		if rt.countEligible() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not-ready", "reason": "no-backend"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	case "/router/status":
		writeJSON(w, http.StatusOK, rt.Status())
		return
	}

	tenant, _, read := classify(r)
	var b *backend
	if read {
		b = rt.pick(tenant)
		if b == nil {
			obsNoBackend.Inc()
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"error": "no healthy caught-up backend", "reason": "no-backend",
			})
			return
		}
	} else {
		obsWrites.Inc()
		if !rt.leader.healthy.Load() {
			obsFailovers.Inc()
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"error": "leader unavailable; writes cannot fail over", "reason": "leader-unavailable",
			})
			return
		}
		b = rt.leader
	}
	obsRouted.Inc()
	b.inflight.Add(1)
	b.served.Add(1)
	defer b.inflight.Add(-1)
	b.proxy.ServeHTTP(w, r)
}

// BackendStatus is one backend's entry in GET /router/status.
type BackendStatus struct {
	URL      string            `json:"url"`
	Role     string            `json:"role"`
	Healthy  bool              `json:"healthy"`
	Inflight int64             `json:"inflight"`
	Served   int64             `json:"served"`
	Errors   int64             `json:"errors"`
	LSNs     map[string]uint64 `json:"lsns,omitempty"`
}

// Status snapshots every backend for GET /router/status.
func (rt *Router) Status() []BackendStatus {
	out := make([]BackendStatus, 0, len(rt.backends))
	for _, b := range rt.backends {
		role := "replica"
		if b.leader {
			role = "leader"
		}
		b.mu.Lock()
		lsns := make(map[string]uint64, len(b.lsns))
		for k, v := range b.lsns {
			lsns[k] = v
		}
		b.mu.Unlock()
		out = append(out, BackendStatus{
			URL:      b.rawURL,
			Role:     role,
			Healthy:  b.healthy.Load(),
			Inflight: b.inflight.Load(),
			Served:   b.served.Load(),
			Errors:   b.errored.Load(),
			LSNs:     lsns,
		})
	}
	return out
}

// Start probes once synchronously, then keeps probing on
// ProbeInterval until Stop.
func (rt *Router) Start() {
	rt.Probe()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		tick := time.NewTicker(rt.opts.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-rt.ctx.Done():
				return
			case <-tick.C:
				rt.Probe()
			}
		}
	}()
}

// Stop ends the probe loop.
func (rt *Router) Stop() {
	rt.cancel()
	rt.wg.Wait()
}

// HTTPServer wraps the router for ListenAndServe.
func (rt *Router) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
