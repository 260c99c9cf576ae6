// Package replica is the follower half of WAL-shipping replication
// (DESIGN.md §12): a Node tails a leader's per-tenant write-ahead log
// over HTTP (GET /sites/{name}/wal?from=), applies each record through
// the same snapshot-swap path local recovery uses, and serves read-only
// /check, /matchpolicy, and /matchall from its local snapshots. Writes are
// rejected with a typed 403 naming the leader; /readyz is lag-gated so
// a router keeps a stale follower out of rotation until it catches up.
//
// The protocol invariants:
//
//   - Every applied record is one all-or-nothing site-snapshot swap, so
//     a reader never observes a state between two leader
//     acknowledgements — a cut stream just freezes the follower at the
//     last applied LSN.
//   - The applied LSN advances only after a successful apply; torn
//     streams (the leader died or the connection dropped mid-frame)
//     retry from it, and mid-stream CRC damage is counted and refetched
//     rather than applied.
//   - A follower whose `from` predates the leader's checkpoint receives
//     an OpState record carrying the full checkpoint (the log below it
//     was truncated away) and resynchronizes in one swap.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/registry"
	"p3pdb/internal/server"
)

// Replication observability, surfaced on /metrics as replica.*.
var (
	obsApplied    = obs.GetCounter("replica.records_applied")
	obsResyncs    = obs.GetCounter("replica.state_resyncs")
	obsTorn       = obs.GetCounter("replica.torn_streams")
	obsCorrupt    = obs.GetCounter("replica.corrupt_streams")
	obsApplyFails = obs.GetCounter("replica.apply_failures")
	obsRounds     = obs.GetCounter("replica.sync_rounds")
	obsLag        = obs.GetGauge("replica.max_lag_records")
	// Batch-apply shape: records-per-batch mean is batch_records /
	// apply_batches, the replication bench's coalescing measure.
	obsBatches      = obs.GetCounter("replica.apply_batches")
	obsBatchRecords = obs.GetCounter("replica.apply_batch_records")
)

// Options configure a follower node.
type Options struct {
	// Leader is the leader's base URL (e.g. "http://leader:8733").
	Leader string
	// Tenants names the tenants to replicate; empty discovers them from
	// the leader's GET /sites at Start.
	Tenants []string
	// PollInterval is the pause before retrying after a failed sync
	// round (default 200ms). Successful rounds pace themselves on the
	// leader's long poll.
	PollInterval time.Duration
	// Wait is the long-poll duration requested from the leader
	// (default 2s). Zero in Sync (the synchronous catch-up) regardless.
	Wait time.Duration
	// MaxReadyLag is the per-tenant lag (in records) past which /readyz
	// reports not-ready; zero demands full catch-up.
	MaxReadyLag uint64
	// Site passes options (budgets, cache sizes) to every replicated
	// site.
	Site core.Options
	// Client overrides the HTTP client used against the leader.
	Client *http.Client
}

// tenantState is one replicated tenant's position.
type tenantState struct {
	name      string
	site      *core.Site
	applied   atomic.Uint64 // last successfully applied LSN
	leaderLSN atomic.Uint64 // leader log head as last observed
	synced    atomic.Bool   // at least one completed catch-up round
	lastErr   atomic.Value  // string
}

func (ts *tenantState) lag() uint64 {
	leader, applied := ts.leaderLSN.Load(), ts.applied.Load()
	if leader <= applied {
		return 0
	}
	return leader - applied
}

// Node is a follower: a read-only registry fed from the leader's WAL,
// wrapped in the follower HTTP face.
type Node struct {
	opts   Options
	reg    *registry.Registry
	inner  *server.MultiServer
	mux    *http.ServeMux
	client *http.Client

	mu      sync.Mutex
	tenants map[string]*tenantState

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// New builds a follower node for a leader. Tenants named in the options
// are tracked immediately; otherwise Start discovers them.
func New(opts Options) (*Node, error) {
	if opts.Leader == "" {
		return nil, errors.New("replica: leader URL required")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}
	if opts.Wait <= 0 {
		opts.Wait = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Wait + 30*time.Second}
	}
	reg, err := registry.New(registry.Options{Site: opts.Site, ReadOnly: true})
	if err != nil {
		return nil, err
	}
	n := &Node{
		opts:    opts,
		reg:     reg,
		inner:   server.NewMultiWithOptions(reg, server.Options{ReadOnly: true, Leader: opts.Leader}),
		mux:     http.NewServeMux(),
		client:  client,
		tenants: map[string]*tenantState{},
	}
	n.ctx, n.cancel = context.WithCancel(context.Background())
	// The follower face is the multi-tenant API with two overrides:
	// readiness is lag-gated, and replication status reports the
	// follower's applied/leader LSNs instead of the leader's journal.
	n.mux.HandleFunc("/readyz", n.handleReadyz)
	n.mux.HandleFunc("/replication/status", n.handleStatus)
	n.mux.Handle("/", n.inner)
	for _, name := range opts.Tenants {
		if err := n.Track(name); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Track starts replicating a tenant (idempotent): the local site
// materializes empty and fills on the next sync round.
func (n *Node) Track(name string) error {
	name, err := registry.Normalize(name)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.tenants[name]; ok {
		return nil
	}
	site, err := n.reg.Install(name)
	if err != nil {
		return err
	}
	ts := &tenantState{name: name, site: site}
	ts.lastErr.Store("")
	n.tenants[name] = ts
	if n.started {
		n.wg.Add(1)
		go n.tailLoop(ts)
	}
	return nil
}

// Discover asks the leader for its tenant list and tracks every name.
func (n *Node) Discover() error {
	req, err := http.NewRequestWithContext(n.ctx, http.MethodGet, n.opts.Leader+"/sites", nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: discovering tenants: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: discovering tenants: leader returned %s", resp.Status)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return fmt.Errorf("replica: discovering tenants: %w", err)
	}
	for _, name := range names {
		if err := n.Track(name); err != nil {
			return err
		}
	}
	return nil
}

// states snapshots the tracked tenants, sorted by name.
func (n *Node) states() []*tenantState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*tenantState, 0, len(n.tenants))
	for _, ts := range n.tenants {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Sync runs one synchronous catch-up round (no long poll) for every
// tracked tenant — the deterministic path tests and benches use.
func (n *Node) Sync(ctx context.Context) error {
	var errs []error
	for _, ts := range n.states() {
		if err := n.syncTenant(ctx, ts, 0); err != nil {
			errs = append(errs, fmt.Errorf("replica: %s: %w", ts.name, err))
		}
	}
	return errors.Join(errs...)
}

// Start launches the background tail loops (discovering tenants first
// when none were named). Safe to call once.
func (n *Node) Start() error {
	n.mu.Lock()
	empty := len(n.tenants) == 0
	n.mu.Unlock()
	if empty {
		if err := n.Discover(); err != nil {
			return err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return nil
	}
	n.started = true
	for _, ts := range n.tenants {
		n.wg.Add(1)
		go n.tailLoop(ts)
	}
	return nil
}

// Stop cancels the tail loops and waits for them.
func (n *Node) Stop() {
	n.cancel()
	n.wg.Wait()
}

// tailLoop tails one tenant until the node stops: long-polling sync
// rounds back to back, with a pause after failures.
func (n *Node) tailLoop(ts *tenantState) {
	defer n.wg.Done()
	for {
		if n.ctx.Err() != nil {
			return
		}
		err := n.syncTenant(n.ctx, ts, n.opts.Wait)
		if err != nil && n.ctx.Err() == nil {
			ts.lastErr.Store(err.Error())
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(n.opts.PollInterval):
			}
		}
	}
}

// syncTenant runs one sync round: fetch the WAL from the applied LSN
// (long-polling up to wait) and apply every record. The applied LSN
// advances per record, only on success.
func (n *Node) syncTenant(ctx context.Context, ts *tenantState, wait time.Duration) error {
	url := fmt.Sprintf("%s/sites/%s/wal?from=%d", n.opts.Leader, ts.name, ts.applied.Load())
	if wait > 0 {
		url += "&wait=" + wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("leader returned %s", resp.Status)
	}
	obsRounds.Inc()
	if v := resp.Header.Get("X-WAL-LSN"); v != "" {
		if lsn, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			ts.leaderLSN.Store(lsn)
			if applied := ts.applied.Load(); applied > lsn {
				// The leader's log regressed below our applied position
				// (e.g. restored from an older backup): restart from zero
				// so the next round resynchronizes the full state.
				ts.applied.Store(0)
				ts.synced.Store(false)
				return fmt.Errorf("leader LSN %d below applied %d: resynchronizing", lsn, applied)
			}
		}
	}
	// Drain the whole contiguous run the leader sent before applying
	// anything: every record in the run then lands through chunked batch
	// applies — one snapshot rebuild per chunk instead of one per record,
	// which is what keeps follower lag bounded when the leader bursts.
	// A stream error or an injected apply fault truncates the run at that
	// point; the records before it still apply (the pre-batching
	// behavior), the faulted record and everything after it do not.
	sr := durable.NewStreamReader(resp.Body)
	applied := ts.applied.Load()
	var run []*durable.Record
	var deferredErr error
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, durable.ErrCorrupt) {
				obsCorrupt.Inc()
			} else {
				obsTorn.Inc()
			}
			deferredErr = err
			break
		}
		if rec.LSN <= applied {
			continue
		}
		if err := faultkit.Inject(faultkit.PointReplicaApply); err != nil {
			obsApplyFails.Inc()
			deferredErr = fmt.Errorf("applying record %d: %w", rec.LSN, err)
			break
		}
		run = append(run, rec)
	}
	if err := applyRun(ts, run); err != nil {
		return err
	}
	if deferredErr != nil {
		return deferredErr
	}
	ts.synced.Store(true)
	ts.lastErr.Store("")
	n.updateLagGauge()
	return nil
}

// maxApplyBatch bounds how many records land in one batch apply: chunks
// keep the follower publishing intermediate states on a long catch-up
// (readers see progress) and bound the work a failed batch discards.
const maxApplyBatch = 256

// applyRun lands a drained run of records through chunked batch applies,
// advancing the applied LSN after each chunk.
func applyRun(ts *tenantState, run []*durable.Record) error {
	for len(run) > 0 {
		chunk := run
		if len(chunk) > maxApplyBatch {
			chunk = chunk[:maxApplyBatch]
		}
		run = run[len(chunk):]
		n, err := durable.ApplyRecords(ts.site, chunk)
		if n > 0 {
			ts.applied.Store(chunk[n-1].LSN)
			obsBatches.Inc()
			obsBatchRecords.Add(int64(n))
			for _, rec := range chunk[:n] {
				if rec.Op == durable.OpState {
					obsResyncs.Inc()
				} else {
					obsApplied.Inc()
				}
			}
		}
		if err != nil {
			obsApplyFails.Inc()
			bad := chunk[n]
			return fmt.Errorf("applying record %d (%s): %w", bad.LSN, bad.Op, err)
		}
	}
	return nil
}

// updateLagGauge publishes the worst per-tenant lag.
func (n *Node) updateLagGauge() {
	var max uint64
	for _, ts := range n.states() {
		if l := ts.lag(); l > max {
			max = l
		}
	}
	obsLag.Set(int64(max))
}

// TenantStatus is one tenant's replication position, as Status reports
// it.
type TenantStatus struct {
	Tenant     string `json:"tenant"`
	AppliedLSN uint64 `json:"appliedLSN"`
	LeaderLSN  uint64 `json:"leaderLSN"`
	Lag        uint64 `json:"lag"`
	Synced     bool   `json:"synced"`
	LastError  string `json:"lastError,omitempty"`
}

// Status reports every tracked tenant's position, sorted by name.
func (n *Node) Status() []TenantStatus {
	states := n.states()
	out := make([]TenantStatus, 0, len(states))
	for _, ts := range states {
		st := TenantStatus{
			Tenant:     ts.name,
			AppliedLSN: ts.applied.Load(),
			LeaderLSN:  ts.leaderLSN.Load(),
			Lag:        ts.lag(),
			Synced:     ts.synced.Load(),
		}
		if v, ok := ts.lastErr.Load().(string); ok {
			st.LastError = v
		}
		out = append(out, st)
	}
	return out
}

// Ready reports whether every tracked tenant has completed a catch-up
// round and sits within MaxReadyLag of the leader — the lag gate that
// keeps a stale follower out of a router's rotation.
func (n *Node) Ready() bool {
	for _, ts := range n.states() {
		if !ts.synced.Load() || ts.lag() > n.opts.MaxReadyLag {
			return false
		}
	}
	return true
}

// Registry exposes the follower's registry (read-only; for tests).
func (n *Node) Registry() *registry.Registry { return n.reg }

// handleReadyz is the lag-gated readiness endpoint.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !n.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not-ready", "reason": "replica-lagging"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStatus reports the follower's per-tenant positions in the shared
// ReplicationStatus shape.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := server.ReplicationStatus{Role: "follower", Ready: n.Ready(), Tenants: map[string]server.TenantReplication{}}
	for _, t := range n.Status() {
		st.Tenants[t.Tenant] = server.TenantReplication{
			LSN:       t.AppliedLSN,
			LeaderLSN: t.LeaderLSN,
			Lag:       t.Lag,
			Synced:    t.Synced,
			LastError: t.LastError,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// writeJSON mirrors the server package's envelope helper.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ServeHTTP implements http.Handler: the follower HTTP face.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// HTTPServer wraps the node in an http.Server with the same timeout
// posture as the leader-side servers.
func (n *Node) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           n,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
