// Package durable gives tenant sites database durability: the paper's
// premise is that a site's policies are shredded once and then served
// from a persistent DBMS, so admin mutations must survive a process
// kill, not just a snapshot swap. Each tenant gets an append-only
// write-ahead log of its mutations plus periodic snapshot checkpoints;
// recovery rebuilds the tenant by loading the newest checkpoint and
// replaying the log tail through the same all-or-nothing snapshot-swap
// path every other write uses.
//
// The protocol (DESIGN.md §10):
//
//   - Every mutation appends one CRC32C-framed record before it is
//     acknowledged (fsync per the configured policy: always, interval,
//     or never).
//   - A checkpoint writes the full logical state (policy documents in
//     install order + reference file) to a temp file, fsyncs, renames it
//     over snapshot.json, fsyncs the directory, then truncates the log —
//     records at or below the snapshot's LSN are skipped on replay, so a
//     crash between rename and truncate is harmless.
//   - Recovery tolerates a torn final record (truncate and warn) and
//     refuses mid-log CRC damage with ErrCorrupt: a torn tail is what a
//     crash produces, interior damage means acknowledged mutations would
//     be silently lost.
//
// The Tenant is also the durable mutation front-door: its mutation
// methods run a group-apply pipeline — concurrent mutations register in
// a queue, and whoever wins the journal lock applies everything queued
// as one core.ApplyBatch (one snapshot rebuild), appends the records,
// and shares one fsync. Apply and append happen under one lock, so a
// checkpoint can never capture a site state whose mutations are not yet
// in the log (which would double-apply them on replay).
//
// ApplyBatch is the one apply loop for writers, recovery and followers.
// A writer whose edit fails (core.MutationError) gets the edit's own
// error and leaves its group; the rest retry as one batch. Recovery and
// follower drains apply the longest prefix that applies (applyPrefix)
// and report the first record that does not.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reffile"
)

// Durability observability, surfaced on /metrics as durable.*.
var (
	obsAppends     = obs.GetCounter("durable.records_appended")
	obsBytes       = obs.GetCounter("durable.bytes_appended")
	obsFsyncs      = obs.GetCounter("durable.fsyncs")
	obsCheckpoints = obs.GetCounter("durable.checkpoints")
	obsRecoveries  = obs.GetCounter("durable.recovery_replays")
	obsReplayed    = obs.GetCounter("durable.replayed_records")
	obsTorn        = obs.GetCounter("durable.torn_tail_truncations")
	obsRollbacks   = obs.GetCounter("durable.append_rollbacks")
	obsGroups      = obs.GetCounter("durable.apply_groups")
	obsGroupMuts   = obs.GetCounter("durable.apply_group_mutations")
	obsOpenLogs    = obs.GetGauge("durable.open_logs")
)

// ErrClosed reports a mutation against a closed tenant journal (for
// example after LRU eviction closed it under a stale handler).
var ErrClosed = errors.New("durable: tenant journal closed")

// AppendError marks a failure in the durability layer itself — the
// mutation was valid and (briefly) applied, but could not be made
// durable and was rolled back. Servers map it to a 503 rather than the
// 400 a malformed document earns.
type AppendError struct{ Err error }

func (e *AppendError) Error() string { return e.Err.Error() }
func (e *AppendError) Unwrap() error { return e.Err }

// FsyncPolicy selects when the log reaches stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every appended record: a 2xx means the
	// mutation survives power loss. The slowest and strongest setting.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval is true group commit: an acknowledgement waits for
	// the coalesced fsync covering its record, so a 2xx still survives
	// power loss — concurrent mutations share one fsync (and one
	// snapshot rebuild) instead of paying one each. The background
	// timer (Options.FsyncInterval) is a hygiene backstop, not the ack
	// path.
	FsyncInterval
	// FsyncNever leaves syncing to the OS: survives process kills (the
	// page cache persists) but not power loss.
	FsyncNever
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy resolves a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configure a Store and every tenant it opens.
type Options struct {
	// Fsync is the log sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the hygiene sync period for FsyncInterval (the
	// ack path is the group commit itself); zero means 100ms.
	FsyncInterval time.Duration
	// CheckpointEvery triggers an automatic snapshot checkpoint after
	// this many logged records; zero means 256. Negative disables
	// automatic checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	return o
}

// Store is the root of the durable layout: one subdirectory per tenant,
// each holding wal.log and snapshot.json.
type Store struct {
	dir  string
	opts Options
}

// Open creates (if needed) and returns the durable store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &Store{dir: dir, opts: opts.withDefaults()}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// HasTenant reports whether the store holds durable state for name.
func (s *Store) HasTenant(name string) bool {
	dir := filepath.Join(s.dir, name)
	for _, f := range []string{logName, snapName} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err == nil && !fi.IsDir() {
			return true
		}
	}
	return false
}

// TenantNames lists every tenant with durable state, sorted.
func (s *Store) TenantNames() []string {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, de := range des {
		if de.IsDir() && s.HasTenant(de.Name()) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names
}

// RemoveTenant deletes a tenant's durable state entirely (the admin
// DELETE path: the tenant is durably gone; a sites-dir-backed tenant
// re-bootstraps from its directory on next load).
func (s *Store) RemoveTenant(name string) error {
	return os.RemoveAll(filepath.Join(s.dir, name))
}

// Tenant is one tenant's open journal: the write-ahead log handle, its
// LSN bookkeeping, and the recovered-but-not-yet-replayed state between
// OpenTenant and ReplayInto.
type Tenant struct {
	name string
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	closed   bool
	lsn      uint64 // last assigned LSN
	snapLSN  uint64 // LSN covered by the newest checkpoint
	logBytes int64
	since    int  // records since the last checkpoint
	torn     bool // recovery truncated a torn tail
	syncErr  error

	// appendSeq counts appended records; syncedSeq the count covered by
	// the last successful fsync. They replace a bare needs-sync flag so
	// a sync that started before later appends never claims to cover
	// them.
	appendSeq uint64
	syncedSeq uint64

	// batch is the open group-commit window (FsyncInterval only): the
	// first group since the last fsync opens it, capturing the
	// rollback point; every group until the batch commits joins it.
	// One fsync acknowledges every mutation in the window, and one
	// failed fsync fails them all.
	batch *commitBatch

	// qmu guards queue, the group-apply registration list: a mutation
	// registers here before contending for mu, so whoever wins the
	// lock applies everything registered so far as one group — one
	// snapshot rebuild and one log pass for N concurrent writers.
	qmu   sync.Mutex
	queue []*mutOp

	// changed is closed and replaced whenever a record is appended, so
	// WAL streamers can long-poll for new records without spinning.
	changed chan struct{}

	// recovered state, consumed by ReplayInto.
	pending         *Snapshot
	pendingRecords  []Record
	pendingConsumed bool

	stopSync chan struct{}
	syncDone chan struct{}
}

// OpenTenant opens (creating if absent) a tenant's journal and scans its
// durable state. A torn final record is truncated away and reported via
// Status and the durable.torn_tail_truncations counter; mid-log CRC
// damage fails with ErrCorrupt, a damaged snapshot with
// ErrSnapshotCorrupt. Call ReplayInto to apply the recovered state to a
// fresh site.
func (s *Store) OpenTenant(name string) (*Tenant, error) {
	dir := filepath.Join(s.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logName)
	data, err := readAll(logPath)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	res, err := scanLog(data)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if res.torn {
		// A crash mid-append left a partial frame; drop it so the log is
		// a clean prefix again before anything new is appended after it.
		if err := f.Truncate(res.validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: truncating torn tail: %w", err)
		}
		obsTorn.Inc()
	}
	if _, err := f.Seek(res.validLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}

	t := &Tenant{
		name:           name,
		dir:            dir,
		opts:           s.opts,
		f:              f,
		logBytes:       res.validLen,
		torn:           res.torn,
		changed:        make(chan struct{}),
		pending:        snap,
		pendingRecords: res.records,
	}
	if snap != nil {
		t.snapLSN = snap.LSN
		t.lsn = snap.LSN
	}
	for _, rec := range res.records {
		if rec.LSN > t.lsn {
			t.lsn = rec.LSN
		}
	}
	if s.opts.Fsync == FsyncInterval {
		t.stopSync = make(chan struct{})
		t.syncDone = make(chan struct{})
		go t.syncLoop()
	}
	obsOpenLogs.Add(1)
	return t, nil
}

// commitBatch is one group-commit window: the appends acknowledged by a
// single coalesced fsync. The rollback fields capture the tenant's
// position before the batch's first record, so a failed fsync can
// truncate every record in the window away and roll the site back to
// the last acknowledged state — no waiter gets a 2xx that rides a dead
// fsync, and none keeps state the log does not hold.
type commitBatch struct {
	ops []*mutOp

	site      *core.Site
	prevExp   core.StateExport
	prevBytes int64
	prevLSN   uint64
	prevSince int
}

// mutOp is one durable mutation in flight through the group-apply
// pipeline: its log record, its site edit in batchable form, and the
// channel its writer waits on for the durable outcome.
type mutOp struct {
	site *core.Site
	rec  *Record
	mut  core.Mutation
	err  error
	done chan struct{}
}

// resolve delivers the mutation's final outcome to its waiting writer.
func (o *mutOp) resolve(err error) {
	o.err = err
	close(o.done)
}

// syncLoop is interval mode's hygiene timer: batches are normally
// committed by their leader append, so the ticker only resolves
// anything a leader never got to (and keeps the legacy "flush within
// one interval" property for unsynced bytes).
func (t *Tenant) syncLoop() {
	defer close(t.syncDone)
	ticker := time.NewTicker(t.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopSync:
			return
		case <-ticker.C:
		}
		t.mu.Lock()
		if !t.closed {
			_ = t.commitLocked()
		}
		t.mu.Unlock()
	}
}

// needsSyncLocked reports whether records were appended since the last
// successful fsync.
func (t *Tenant) needsSyncLocked() bool { return t.appendSeq != t.syncedSeq }

// commitLocked performs one coalesced fsync and resolves the open
// commit batch. Holding t.mu across the fsync means no append can slip
// into the window after it is judged: appends blocked on the lock open
// the next batch and ride the next fsync. On success every waiter in
// the batch is acknowledged; on failure the whole window is truncated
// from the log, the site rolled back to the batch's first-record
// snapshot, and every waiter fails with the fsync's error. Returns the
// fsync error, if any.
func (t *Tenant) commitLocked() error {
	b := t.batch
	t.batch = nil
	if b == nil {
		// No waiters: hygiene flush for any unsynced bytes (none in
		// steady state, since every interval-mode append waits).
		if !t.needsSyncLocked() || t.opts.Fsync == FsyncNever {
			return nil
		}
		target := t.appendSeq
		if err := syncFile(t.f); err != nil {
			t.syncErr = err
			return err
		}
		t.syncedSeq = target
		t.syncErr = nil
		return nil
	}
	target := t.appendSeq
	err := faultkit.Inject(faultkit.PointDurableGroupCommit)
	if err == nil {
		err = syncFile(t.f)
	}
	if err == nil {
		t.syncedSeq = target
		t.syncErr = nil
		for _, op := range b.ops {
			op.resolve(nil)
		}
		return nil
	}
	t.syncErr = err
	// The coalesced fsync failed: none of the batch's records may stay
	// acknowledged. Truncate the window away so the on-disk log remains
	// a clean prefix of acknowledged records, and roll the site back so
	// memory never runs ahead of the log.
	if terr := t.f.Truncate(b.prevBytes); terr == nil {
		_, _ = t.f.Seek(b.prevBytes, 0)
	} else {
		// The unacknowledged window is stuck on disk; refuse further
		// appends, as in appendLocked.
		t.closed = true
		_ = t.f.Close()
		err = errors.Join(err, terr)
	}
	t.logBytes = b.prevBytes
	t.lsn = b.prevLSN
	t.since = b.prevSince
	t.syncedSeq = t.appendSeq
	if rerr := restore(b.site, b.prevExp); rerr != nil {
		err = errors.Join(err, fmt.Errorf("durable: rollback failed, memory ahead of log: %w", rerr))
	}
	for _, op := range b.ops {
		op.resolve(&AppendError{Err: err})
	}
	return err
}

// Name returns the tenant name the journal was opened under.
func (t *Tenant) Name() string { return t.name }

// Torn reports whether opening the journal truncated a torn tail.
func (t *Tenant) Torn() bool { return t.torn }

// Status is the tenant's durability position, served by the
// /durability endpoint.
type Status struct {
	Tenant                 string `json:"tenant"`
	LSN                    uint64 `json:"lsn"`
	CheckpointLSN          uint64 `json:"checkpointLSN"`
	LogBytes               int64  `json:"logBytes"`
	RecordsSinceCheckpoint int    `json:"recordsSinceCheckpoint"`
	Fsync                  string `json:"fsync"`
	TornTailRecovered      bool   `json:"tornTailRecovered,omitempty"`
	SyncError              string `json:"syncError,omitempty"`
}

// Status reports the journal's current durability position.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		Tenant:                 t.name,
		LSN:                    t.lsn,
		CheckpointLSN:          t.snapLSN,
		LogBytes:               t.logBytes,
		RecordsSinceCheckpoint: t.since,
		Fsync:                  t.opts.Fsync.String(),
		TornTailRecovered:      t.torn,
	}
	if t.syncErr != nil {
		st.SyncError = t.syncErr.Error()
	}
	return st
}

// Close resolves any open commit batch, stops the sync timer, flushes
// the log, and closes the file. Safe to call twice.
func (t *Tenant) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	// Resolve the open batch (fsync and acknowledge, or roll back) so
	// no waiter hangs on a closed journal.
	err := t.commitLocked()
	var cerr error
	if !t.closed {
		t.closed = true
		cerr = t.f.Close()
	}
	t.mu.Unlock()
	if t.stopSync != nil {
		close(t.stopSync)
		<-t.syncDone
	}
	obsOpenLogs.Add(-1)
	return errors.Join(err, cerr)
}

// appendLocked frames and writes one record, assigning its LSN. Caller
// holds t.mu and owns the sync: it issues one covering fsync for its run
// of appends and rolls the whole run back if that fails. On a failed
// write the record's bytes are truncated away so the on-disk log remains
// a clean prefix of acknowledged records; otherwise a rolled-back
// mutation would resurrect on replay.
func (t *Tenant) appendLocked(rec *Record) error {
	if t.closed {
		return ErrClosed
	}
	rec.LSN = t.lsn + 1
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	prev := t.logBytes
	n, err := appendFrame(t.f, frame)
	if err != nil {
		if terr := t.f.Truncate(prev); terr == nil {
			_, _ = t.f.Seek(prev, 0)
		} else {
			// The unacknowledged frame is stuck on disk; refuse further
			// appends — recovery handles the tail, but appending after it
			// would turn it into mid-log corruption.
			t.closed = true
			_ = t.f.Close()
			err = errors.Join(err, terr)
		}
		return err
	}
	t.logBytes = prev + n
	t.lsn++
	t.since++
	t.appendSeq++
	close(t.changed)
	t.changed = make(chan struct{})
	obsAppends.Inc()
	obsBytes.Add(n)
	return nil
}

// restore rolls a site back to a captured export after a log append
// failed, so memory never runs ahead of the acknowledged durable state.
// RestoreState (not ReplacePolicies) because the export may carry a
// reference file with refs left dangling by an earlier RemovePolicy.
func restore(site *core.Site, exp core.StateExport) error {
	obsRollbacks.Inc()
	return site.RestoreState(exp)
}

// parseExport rebuilds parsed policies (in order) and the reference file
// from exported documents.
func parseExport(order []string, docs map[string]string, ref string) ([]*p3p.Policy, *reffile.RefFile, error) {
	var pols []*p3p.Policy
	for _, name := range order {
		ps, err := p3p.ParsePolicies(docs[name])
		if err != nil {
			return nil, nil, fmt.Errorf("durable: policy %s: %w", name, err)
		}
		pols = append(pols, ps...)
	}
	var rf *reffile.RefFile
	if ref != "" {
		var err error
		rf, err = reffile.Parse(ref)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: reference file: %w", err)
		}
	}
	return pols, rf, nil
}

// apply queues one mutation for the group-apply pipeline and waits for
// its durable outcome. A mutation registers in the queue before
// contending for the journal lock, so whoever wins the lock drains
// everything registered so far as one group: the applies collapse into
// a single core.ApplyBatch (one snapshot rebuild for N concurrent
// writers), the records append in queue order, and under FsyncInterval
// the whole group joins the open commit batch, whose coalesced fsync
// resolves every writer with that fsync's real outcome.
//
// The contract is unchanged from the one-mutation-at-a-time design: the
// mutation is durable (per the fsync policy) before apply returns, a
// concurrent Checkpoint can never capture applied-but-unlogged state,
// and on any durability failure the site is rolled back, so an error
// response never leaves memory ahead of the log.
func (t *Tenant) apply(site *core.Site, rec *Record, mut core.Mutation) error {
	op := &mutOp{site: site, rec: rec, mut: mut, done: make(chan struct{})}
	t.qmu.Lock()
	t.queue = append(t.queue, op)
	t.qmu.Unlock()

	// Yield between registering and contending: writers woken together
	// (say, by the previous group's resolution) all register before the
	// first of them wins the lock, so the winner drains them as one
	// group. Without this the wake-up train processes one mutation per
	// lock acquisition and the batch never widens; for a lone writer
	// the yield is a no-op.
	runtime.Gosched()
	t.mu.Lock()
	var created *commitBatch
	select {
	case <-op.done:
		// An earlier lock winner already carried this mutation through
		// its group; nothing left to do under the lock.
	default:
		created = t.processQueueLocked()
	}
	t.mu.Unlock()
	if created != nil {
		// The batch's creator commits it. The yield is the coalescing
		// window: writers already blocked on the lock get scheduled,
		// append, and join the batch before the creator re-acquires it —
		// without it the creator barges back in ahead of the waiters it
		// just woke (acute on one CPU) and every batch holds one group.
		// A lone writer's yield is a no-op, so it stays one append + one
		// fsync with no goroutine handoff. The sync loop's ticker remains
		// as hygiene for anything a creator never got to.
		runtime.Gosched()
		t.mu.Lock()
		if t.batch == created {
			_ = t.commitLocked()
		}
		t.mu.Unlock()
	}
	<-op.done
	return op.err
}

// processQueueLocked drains the registration queue and carries every
// queued mutation through apply + append as one group, resolving each
// writer (or, under FsyncInterval, parking it on the commit batch).
// Returns the commit batch this call opened, if any, so the caller can
// commit it after releasing the lock.
//
// The group applies as one ApplyBatch — one snapshot rebuild — however
// many writers it holds. A mutation whose edit fails is resolved with
// its own error, exactly what it would have got alone, and leaves the
// group; the rest retry as one batch. A failure ApplyBatch cannot pin
// on one mutation fails every writer in the group and leaves the site
// unchanged.
func (t *Tenant) processQueueLocked() *commitBatch {
	t.qmu.Lock()
	ops := t.queue
	t.queue = nil
	t.qmu.Unlock()
	if len(ops) == 0 {
		return nil
	}
	if t.closed {
		for _, op := range ops {
			op.resolve(&AppendError{Err: ErrClosed})
		}
		return nil
	}

	obsGroups.Inc()
	obsGroupMuts.Add(int64(len(ops)))

	site := ops[0].site
	prevExp := site.ExportState()
	prevBytes, prevLSN, prevSince := t.logBytes, t.lsn, t.since
	prevSeq := t.appendSeq

	muts := make([]core.Mutation, 0, len(ops))
	group := ops[:0]
	for _, op := range ops {
		// One journal logs one site: an edit to another site would be
		// logged here and replayed into the wrong one.
		if op.site != site {
			op.resolve(errors.New("durable: mutation targets a different site than its journal's group"))
			continue
		}
		muts = append(muts, op.mut)
		group = append(group, op)
	}
	for {
		err := site.ApplyBatch(muts)
		if err == nil {
			break
		}
		var me *core.MutationError
		if !errors.As(err, &me) {
			// A one-mutation group's own error, or a failure no single
			// mutation owns: nothing applied.
			for _, op := range group {
				op.resolve(err)
			}
			return nil
		}
		group[me.Index].resolve(me.Err)
		group = slices.Delete(group, me.Index, me.Index+1)
		muts = slices.Delete(muts, me.Index, me.Index+1)
	}
	if len(group) == 0 {
		return nil
	}

	// One rebuild covered the group; now log it. The group's applies
	// published as one snapshot, so a failure mid-group cannot leave the
	// earlier ones acknowledged: the whole group rolls back — log
	// truncated to the group start, site restored — and every writer in
	// it fails.
	var err error
	for _, op := range group {
		if err = t.appendLocked(op.rec); err != nil {
			break
		}
	}
	if err == nil && t.opts.Fsync == FsyncAlways {
		// One covering fsync acknowledges the whole group: no record is
		// acknowledged before it is stable.
		target := t.appendSeq
		if err = syncFile(t.f); err == nil {
			t.syncedSeq = target
		}
	}
	if err != nil {
		// appendLocked already truncated its own frame (or sealed the
		// journal if it could not); peel back the group's earlier
		// records the same way.
		if !t.closed {
			if terr := t.f.Truncate(prevBytes); terr == nil {
				_, _ = t.f.Seek(prevBytes, 0)
			} else {
				t.closed = true
				_ = t.f.Close()
				err = errors.Join(err, terr)
			}
		}
		t.logBytes = prevBytes
		t.lsn = prevLSN
		t.since = prevSince
		if t.batch == nil {
			// Nothing older is awaiting a sync, so the truncated prefix
			// is fully covered; with an open batch, leave the counters
			// pending for its fsync.
			t.appendSeq = prevSeq
			t.syncedSeq = prevSeq
		}
		if rerr := restore(site, prevExp); rerr != nil {
			err = errors.Join(err, fmt.Errorf("durable: rollback failed, memory ahead of log: %w", rerr))
		}
		for _, op := range group {
			op.resolve(&AppendError{Err: err})
		}
		return nil
	}

	if t.opts.Fsync != FsyncInterval {
		// FsyncAlways synced above; FsyncNever leaves syncing to the OS.
		// Either way the group is acknowledged.
		for _, op := range group {
			op.resolve(nil)
		}
		return nil
	}
	var created *commitBatch
	if t.batch == nil {
		created = &commitBatch{
			site:      site,
			prevExp:   prevExp,
			prevBytes: prevBytes,
			prevLSN:   prevLSN,
			prevSince: prevSince,
		}
		t.batch = created
	}
	t.batch.ops = append(t.batch.ops, group...)
	return created
}

// InstallPolicyXML durably installs a policy document: applied to the
// site, then logged, before returning. The document is parsed here, so
// a malformed document fails before it ever reaches the pipeline (the
// same unwrapped parse error the site method returns).
func (t *Tenant) InstallPolicyXML(site *core.Site, doc string) ([]string, error) {
	pols, err := p3p.ParsePolicies(doc)
	if err != nil {
		return nil, err
	}
	if err := t.apply(site, &Record{Op: OpInstall, Doc: doc}, core.InstallPoliciesMutation(pols)); err != nil {
		return nil, err
	}
	names := make([]string, len(pols))
	for i, pol := range pols {
		names[i] = pol.Name
	}
	return names, nil
}

// RemovePolicy durably removes a named policy.
func (t *Tenant) RemovePolicy(site *core.Site, name string) error {
	return t.apply(site, &Record{Op: OpRemove, Name: name}, core.RemovePolicyMutation(name))
}

// InstallReferenceFileXML durably installs the reference file.
func (t *Tenant) InstallReferenceFileXML(site *core.Site, doc string) error {
	rf, err := reffile.Parse(doc)
	if err != nil {
		return err
	}
	return t.apply(site, &Record{Op: OpReference, Doc: doc}, core.InstallReferenceFileMutation(rf))
}

// Replace durably replaces the whole policy set (and reference file,
// empty for none) from raw documents — the registry's dir-reload path,
// logged as one record.
func (t *Tenant) Replace(site *core.Site, docs []string, ref string) error {
	pols, rf, err := parseExport(orderOf(docs), docsMap(docs), ref)
	if err != nil {
		return err
	}
	return t.apply(site, &Record{Op: OpReplace, Docs: docs, Ref: ref}, core.ReplacePoliciesMutation(pols, rf))
}

// RegisterPreferenceXML durably registers (or replaces) a preference
// ruleset under a name. The document is parsed, validated, and indexed
// eagerly — a malformed ruleset or unknown engine fails before anything
// reaches the pipeline — and the registration pre-warms the decision
// cache through the same ApplyBatch hook every other mutation uses.
func (t *Tenant) RegisterPreferenceXML(site *core.Site, name, xml string, engines []string) error {
	mut, err := core.RegisterPreferenceMutation(name, xml, engines)
	if err != nil {
		return err
	}
	return t.apply(site, &Record{Op: OpPref, Name: name, Doc: xml, Engines: engines}, mut)
}

// prefEntries and prefExports convert between the durable layer's
// snapshot/record shape and core's export shape.
func prefEntries(prefs []core.PrefExport) []PrefEntry {
	var out []PrefEntry
	for _, p := range prefs {
		out = append(out, PrefEntry{Name: p.Name, Doc: p.XML, Engines: p.Engines})
	}
	return out
}

func prefExports(entries []PrefEntry) []core.PrefExport {
	var out []core.PrefExport
	for _, e := range entries {
		out = append(out, core.PrefExport{Name: e.Name, XML: e.Doc, Engines: e.Engines})
	}
	return out
}

// orderOf and docsMap adapt a bare document list to parseExport's
// (order, map) shape.
func orderOf(docs []string) []string {
	order := make([]string, len(docs))
	for i := range docs {
		order[i] = fmt.Sprintf("%d", i)
	}
	return order
}

func docsMap(docs []string) map[string]string {
	m := make(map[string]string, len(docs))
	for i, d := range docs {
		m[fmt.Sprintf("%d", i)] = d
	}
	return m
}

// Checkpoint writes a snapshot of the site's current state and truncates
// the log. The site export and the covered LSN are read under the
// journal lock, so the snapshot covers exactly the mutations logged so
// far and nothing else.
func (t *Tenant) Checkpoint(site *core.Site) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpointLocked(site)
}

func (t *Tenant) checkpointLocked(site *core.Site) error {
	if t.closed {
		return ErrClosed
	}
	// Resolve any open commit batch first: its waiters are owed the
	// outcome of a real fsync, and a rollback must happen before the
	// snapshot captures the site (the waiters see their own error; the
	// checkpoint then covers whichever state survived).
	_ = t.commitLocked()
	if t.closed {
		// The batch's rollback could not restore a clean log prefix and
		// sealed the journal.
		return ErrClosed
	}
	exp := site.ExportState()
	snap := &Snapshot{
		LSN:       t.lsn,
		Order:     exp.Order,
		Policies:  exp.PolicyXML,
		Reference: exp.ReferenceXML,
		Prefs:     prefEntries(exp.Prefs),
	}
	// The log must be durable before the snapshot claims to cover it:
	// otherwise a crash could leave a snapshot at LSN N with the records
	// up to N lost from an unsynced log (harmless here because the
	// snapshot embeds the state — but the invariant keeps reasoning
	// local).
	if t.needsSyncLocked() && t.opts.Fsync != FsyncNever {
		target := t.appendSeq
		if err := syncFile(t.f); err != nil {
			return err
		}
		t.syncedSeq = target
	}
	if err := writeSnapshot(t.dir, snap); err != nil {
		return err
	}
	if err := t.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: log truncate: %w", err)
	}
	if _, err := t.f.Seek(0, 0); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if t.opts.Fsync != FsyncNever {
		if err := syncFile(t.f); err != nil {
			return err
		}
	}
	t.snapLSN = t.lsn
	t.logBytes = 0
	t.since = 0
	obsCheckpoints.Inc()
	return nil
}

// MaybeCheckpoint checkpoints when the record count since the last one
// reached Options.CheckpointEvery.
func (t *Tenant) MaybeCheckpoint(site *core.Site) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.opts.CheckpointEvery <= 0 || t.since < t.opts.CheckpointEvery {
		return nil
	}
	return t.checkpointLocked(site)
}

// ReplayInto applies the state recovered at OpenTenant to a fresh site:
// the snapshot and every log record past its LSN, in order, as one
// batch — one snapshot rebuild for the whole recovery. A record that
// cannot apply stops recovery there, with the snapshot and the records
// before it applied (applyPrefix). It consumes the recovered state;
// calling it twice is an error.
func (t *Tenant) ReplayInto(site *core.Site) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pendingConsumed {
		return errors.New("durable: recovered state already replayed")
	}
	t.pendingConsumed = true
	snap, records := t.pending, t.pendingRecords
	t.pending, t.pendingRecords = nil, nil

	var head []core.Mutation
	if snap != nil {
		m, err := core.RestoreStateMutation(core.StateExport{Order: snap.Order, PolicyXML: snap.Policies, ReferenceXML: snap.Reference, Prefs: prefExports(snap.Prefs)})
		if err != nil {
			return fmt.Errorf("durable: snapshot replay: %w", err)
		}
		head = []core.Mutation{m}
	}
	var live []*Record
	for i := range records {
		// Records at or below the snapshot's LSN are covered by it: a
		// crash landed between snapshot rename and log truncation.
		if records[i].LSN > t.snapLSN {
			live = append(live, &records[i])
		}
	}
	n, err := applyPrefix(site, head, live)
	n -= len(head) // tail records applied; -1 when the snapshot failed
	if err != nil {
		if n < 0 {
			return fmt.Errorf("durable: snapshot replay: %w", err)
		}
		return fmt.Errorf("durable: replaying record %d (%s): %w", live[n].LSN, live[n].Op, err)
	}
	obsRecoveries.Inc()
	obsReplayed.Add(int64(n))
	return nil
}

// ApplyRecord replays one logged mutation through the site's public
// write path. It is the follower half of replication: each record lands
// as one all-or-nothing snapshot swap, so a follower killed (or a stream
// cut) between records always serves a state some leader acknowledgement
// produced, never a partial one. Its errors are the mutation's own.
func ApplyRecord(site *core.Site, rec *Record) error {
	_, err := applyPrefix(site, nil, []*Record{rec})
	return err
}

// MutationForRecord translates one logged mutation into a core.Mutation
// so that many records can land through a single batch apply (one
// snapshot rebuild for the lot). Parsing happens here, eagerly, so a
// malformed record fails before any edit touches a draft.
func MutationForRecord(rec *Record) (core.Mutation, error) {
	switch rec.Op {
	case OpInstall:
		pols, err := p3p.ParsePolicies(rec.Doc)
		if err != nil {
			return core.Mutation{}, err
		}
		return core.InstallPoliciesMutation(pols), nil
	case OpRemove:
		return core.RemovePolicyMutation(rec.Name), nil
	case OpReference:
		rf, err := reffile.Parse(rec.Doc)
		if err != nil {
			return core.Mutation{}, err
		}
		return core.InstallReferenceFileMutation(rf), nil
	case OpReplace:
		pols, rf, err := parseExport(orderOf(rec.Docs), docsMap(rec.Docs), rec.Ref)
		if err != nil {
			return core.Mutation{}, err
		}
		return core.ReplacePoliciesMutation(pols, rf), nil
	case OpState:
		exp := core.StateExport{Order: orderOf(rec.Docs), PolicyXML: docsMap(rec.Docs), ReferenceXML: rec.Ref, Prefs: prefExports(rec.Prefs)}
		return core.RestoreStateMutation(exp)
	case OpPref:
		return core.RegisterPreferenceMutation(rec.Name, rec.Doc, rec.Engines)
	}
	return core.Mutation{}, fmt.Errorf("durable: unknown op %q", rec.Op)
}

// ApplyRecords replays a run of logged mutations through one snapshot
// swap — the follower's batch-drain path. A record that cannot apply
// stops the run there: the records before it land, and the error is the
// one ApplyRecord gives for it alone. Returns how many records applied.
func ApplyRecords(site *core.Site, recs []*Record) (int, error) {
	return applyPrefix(site, nil, recs)
}

// applyPrefix lands head, then recs translated in order, as one
// ApplyBatch and returns how many of them (head included) applied. It
// applies the longest prefix that can: a record that fails to translate
// ends the batch before it, and if the edit at index i fails, the first
// i apply as one batch instead. The error is the failing mutation's own.
// A failure ApplyBatch cannot pin on one mutation applies nothing.
func applyPrefix(site *core.Site, head []core.Mutation, recs []*Record) (int, error) {
	muts := slices.Clip(head)
	var err error
	for _, rec := range recs {
		m, terr := MutationForRecord(rec)
		if terr != nil {
			err = terr
			break
		}
		muts = append(muts, m)
	}
	if berr := site.ApplyBatch(muts); berr != nil {
		var me *core.MutationError
		if !errors.As(berr, &me) {
			return 0, berr
		}
		muts, err = muts[:me.Index], me.Err
		if berr := site.ApplyBatch(muts); berr != nil {
			return 0, berr
		}
	}
	return len(muts), err
}
