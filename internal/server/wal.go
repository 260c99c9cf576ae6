// The leader half of replication (DESIGN.md §12): GET /wal streams a
// tenant's write-ahead log from a given LSN as the same CRC32C-framed
// records the on-disk log holds, and GET /replication/status reports
// every resident tenant's log position so routers can gate followers on
// caught-up LSNs. In multi-tenant mode the stream is reached as
// GET /sites/{name}/wal.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"p3pdb/internal/durable"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
)

// maxWALWait bounds the long-poll a follower may request; longer waits
// just reconnect.
const maxWALWait = 30 * time.Second

// WAL streaming observability, surfaced on /metrics as server.wal.*.
var (
	obsWALStreams   = obs.GetCounter("server.wal.streams")
	obsWALRecords   = obs.GetCounter("server.wal.records_shipped")
	obsWALSnapshots = obs.GetCounter("server.wal.snapshots_shipped")
	obsWALDropped   = obs.GetCounter("server.wal.dropped_streams")
)

// handleWAL implements GET /wal?from=N&wait=D: every record with LSN > N
// as framed bytes, preceded by an OpState record carrying the checkpoint
// snapshot when N predates it (a checkpoint truncates the log, so the
// records below it no longer exist to ship). X-WAL-LSN carries the
// tenant's current LSN — the number followers report lag against. With
// wait > 0 and nothing to ship, the request long-polls until a record
// lands or the wait expires (returning an empty, headers-only stream).
// A site without a journal has no log: it answers the mux's own 404.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	if s.opts.Journal == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	q := r.URL.Query()
	var from uint64
	if v := q.Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from parameter: %w", err))
			return
		}
		from = parsed
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait parameter: %w", err))
			return
		}
		wait = min(parsed, maxWALWait)
	}
	deadline := time.Now().Add(wait)
	j := s.opts.Journal
	for {
		// Grab the notification channel before reading: a record landing
		// in between shows up in ReadFrom's result, one landing after
		// closes the channel we hold — no lost wakeups either way.
		changed := j.Changed()
		snap, recs, lsn, err := j.ReadFrom(from)
		if err != nil {
			if errors.Is(err, durable.ErrClosed) {
				writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error(), Reason: "journal-closed"})
				return
			}
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if snap == nil && len(recs) == 0 && wait > 0 && time.Now().Before(deadline) {
			select {
			case <-r.Context().Done():
				return
			case <-changed:
			case <-time.After(time.Until(deadline)):
			}
			continue
		}

		frames := make([][]byte, 0, len(recs)+1)
		if snap != nil {
			frame, err := durable.EncodeRecord(durable.StateRecord(snap))
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			frames = append(frames, frame)
		}
		for i := range recs {
			frame, err := durable.EncodeRecord(&recs[i])
			if err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			frames = append(frames, frame)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-WAL-LSN", strconv.FormatUint(lsn, 10))
		obsWALStreams.Inc()
		if err := faultkit.Inject(faultkit.PointReplicaStream); err != nil {
			// Cut the stream mid-frame: what a dying leader or dropped
			// connection leaves the follower holding. The follower must
			// classify it as torn and retry from its applied LSN.
			obsWALDropped.Inc()
			if len(frames) > 0 {
				_, _ = w.Write(frames[0][:len(frames[0])/2])
			}
			return
		}
		if snap != nil {
			obsWALSnapshots.Inc()
		}
		obsWALRecords.Add(int64(len(recs)))
		for _, frame := range frames {
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
		return
	}
}

// ReplicationStatus is the GET /replication/status envelope, shared by
// leaders (internal/server) and followers (internal/replica) so the
// router parses one shape.
type ReplicationStatus struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Ready mirrors /readyz: followers gate it on replication lag.
	Ready bool `json:"ready"`
	// Tenants maps tenant name to its replication position.
	Tenants map[string]TenantReplication `json:"tenants"`
}

// TenantReplication is one tenant's replication position.
type TenantReplication struct {
	// LSN is the position served from: the log head on a leader, the
	// applied LSN on a follower.
	LSN uint64 `json:"lsn"`
	// LeaderLSN is the leader log head as last observed (followers only).
	LeaderLSN uint64 `json:"leaderLSN,omitempty"`
	// Lag is LeaderLSN - LSN, clamped at zero (followers only).
	Lag uint64 `json:"lag"`
	// CheckpointLSN is the newest checkpoint (leaders only).
	CheckpointLSN uint64 `json:"checkpointLSN,omitempty"`
	// Synced reports at least one completed catch-up round.
	Synced bool `json:"synced"`
	// LastError is the most recent sync failure, empty when healthy.
	LastError string `json:"lastError,omitempty"`
}

// handleReplication implements the leader's GET /replication/status:
// every resident journaled tenant's log position.
func (m *MultiServer) handleReplication(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	st := ReplicationStatus{Role: "leader", Ready: m.reg.Ready(), Tenants: map[string]TenantReplication{}}
	for _, name := range m.reg.Names() {
		if j := m.reg.Journal(name); j != nil {
			js := j.Status()
			st.Tenants[name] = TenantReplication{
				LSN:           js.LSN,
				CheckpointLSN: js.CheckpointLSN,
				Synced:        true,
			}
		}
	}
	writeJSON(w, http.StatusOK, st)
}
