package reldb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/resource"
)

// Process-wide observability counters (obs registry, DESIGN.md §8).
// They aggregate across every DB in the process — per-instance numbers
// stay available via DB.Stats — and are resolved once here so the hot
// path only ever touches atomics.
var (
	obsStatements   = obs.GetCounter("reldb.statements")
	obsRowsScanned  = obs.GetCounter("reldb.rows_scanned")
	obsIndexLookups = obs.GetCounter("reldb.index_lookups")
	obsViewHits     = obs.GetCounter("reldb.viewcache.hits")
	obsViewMisses   = obs.GetCounter("reldb.viewcache.misses")
	obsIndexBuilds  = obs.GetCounter("reldb.derivedindex.builds")
)

// Typed resource-governance errors, re-exported so reldb callers can
// errors.Is against the package they already import. ErrBudgetExceeded
// reports a statement that visited more rows than its step budget
// allows; ErrCanceled reports a context that ended mid-statement (the
// returned error also wraps the context's cause, so deadline expiry is
// distinguishable from explicit cancellation).
var (
	ErrBudgetExceeded = resource.ErrBudgetExceeded
	ErrCanceled       = resource.ErrCanceled
)

// ErrFrozen reports a write attempted against a frozen database. Site
// snapshots freeze their databases at publication; all policy writes go
// through a successor snapshot instead.
var ErrFrozen = errors.New("reldb: database is frozen")

// Options configure a DB instance.
type Options struct {
	// DisableIndexes forces full scans even where an index would apply.
	// Used by the ablation benchmarks.
	DisableIndexes bool
	// MaxSubqueryDepth bounds subquery nesting; statements beyond it are
	// rejected with ErrTooComplex. Zero means the engine default.
	MaxSubqueryDepth int
	// MaxSubqueries bounds the total number of query blocks per
	// statement. Zero means the engine default.
	MaxSubqueries int
	// DisableViewCache turns off the materialized-view cache for bare
	// "(SELECT * FROM t)" derived tables. Used by the ablation
	// benchmarks to isolate the cost of the XML-view reconstruction
	// layer.
	DisableViewCache bool
	// MaxQuerySteps bounds the work one statement may perform, counted
	// in rows visited (by scans, index probes, and subquery
	// re-evaluations). A statement that exceeds it aborts with
	// ErrBudgetExceeded. Zero means unlimited. Callers that install a
	// resource.Meter in the context govern the whole call themselves and
	// override this per-statement budget.
	MaxQuerySteps int64
}

// Stats counts engine work, for tests and ablation benchmarks.
type Stats struct {
	RowsScanned  int64 // rows visited by full scans
	IndexLookups int64 // hash-index probes
	Statements   int64 // statements executed
}

// dbStats is the engine's live counter set. Counters are atomic so the
// read path — which runs under a shared lock, many statements at once —
// can increment them without write-lock serialization.
type dbStats struct {
	rowsScanned  atomic.Int64
	indexLookups atomic.Int64
	statements   atomic.Int64
}

// DB is an in-memory relational database. All methods are safe for
// concurrent use: SELECTs run under a shared lock and proceed in
// parallel; DDL and DML take the exclusive lock.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	opts   Options
	limits complexity // opts' statement-complexity limits, defaults resolved
	stats  dbStats
	// frozen marks the database immutable. Site snapshots freeze their
	// databases once fully populated: from then on SELECTs skip the
	// shared lock entirely — even an uncontended RWMutex.RLock is an
	// atomic read-modify-write on one shared word, which is the cache
	// line every core fights over when matching scales out — and writes
	// fail with ErrFrozen instead of mutating published state.
	frozen atomic.Bool
	// viewMu serializes view-cache fills and invalidations. Readers
	// never take it: they load the viewCache pointer. The first reader
	// to need a missing or stale view materializes it under viewMu and
	// publishes a copied map; the rest reuse. Lock order is always mu
	// before viewMu.
	viewMu sync.Mutex
	// viewCache holds materializations (and hash indexes) of bare
	// "(SELECT * FROM t)" derived tables, keyed by table name and
	// invalidated by the table's version counter. The XML-view
	// reconstruction layer of the XTABLE path re-derives the same views
	// in every statement; this is the engine's materialized-view cache.
	// The map behind the pointer is immutable — fills copy-on-write —
	// so lookups are one atomic load, shared-lock-free.
	viewCache atomic.Pointer[map[string]*viewSnapshot]
	// cat caches the catalog plans bind to (plan.go); DDL clears it.
	cat atomic.Pointer[catalog]
}

// viewSnapshot is one cached bare-view materialization. version and rows
// are written once, before the snapshot is published; the lazily built
// hash indexes over the rows are published through an atomic pointer so
// concurrent SELECTs probe them without locking.
type viewSnapshot struct {
	version int64
	rows    [][]Value
	// idxMu serializes index builds only; readers load the indexes
	// pointer and never block.
	idxMu   sync.Mutex
	indexes atomic.Pointer[map[string]map[string][]int] // colset key -> value key -> row ids
}

// index returns the snapshot's hash index for the given column set,
// building it (once) under idxMu and publishing it copy-on-write.
func (vs *viewSnapshot) index(colsetKey string, ords []int) map[string][]int {
	if buckets := (*vs.indexes.Load())[colsetKey]; buckets != nil {
		return buckets
	}
	vs.idxMu.Lock()
	defer vs.idxMu.Unlock()
	cur := *vs.indexes.Load()
	if buckets := cur[colsetKey]; buckets != nil {
		return buckets
	}
	buckets := buildDerivedIndex(vs.rows, ords)
	next := make(map[string]map[string][]int, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[colsetKey] = buckets
	vs.indexes.Store(&next)
	return buckets
}

func newViewSnapshot(version int64, rows [][]Value) *viewSnapshot {
	vs := &viewSnapshot{version: version, rows: rows}
	vs.indexes.Store(&map[string]map[string][]int{})
	return vs
}

// New returns an empty database with default options.
func New() *DB { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty database with the given options.
func NewWithOptions(opts Options) *DB {
	d := &DB{
		tables: map[string]*Table{},
		opts:   opts,
		limits: opts.limits(),
	}
	d.viewCache.Store(&map[string]*viewSnapshot{})
	return d
}

// Rows is a fully materialized query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Freeze marks the database immutable. Reads from a frozen database
// skip the shared lock — matching against a published site snapshot
// takes no lock at all — and writes fail with ErrFrozen. Freezing is
// one-way; the caller must not mutate tables after calling it.
func (db *DB) Freeze() { db.frozen.Store(true) }

// Frozen reports whether the database has been frozen.
func (db *DB) Frozen() bool { return db.frozen.Load() }

// Stats returns a snapshot of the engine's work counters. The counters
// are atomic, so this is safe to call while statements run concurrently.
func (db *DB) Stats() Stats {
	return Stats{
		RowsScanned:  db.stats.rowsScanned.Load(),
		IndexLookups: db.stats.indexLookups.Load(),
		Statements:   db.stats.statements.Load(),
	}
}

// ResetStats zeroes the work counters.
func (db *DB) ResetStats() {
	db.stats.rowsScanned.Store(0)
	db.stats.indexLookups.Store(0)
	db.stats.statements.Store(0)
}

// Table returns the named table, for introspection, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns the sorted names of all tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var names []string
	for _, t := range db.tables {
		names = append(names, t.schema.Name)
	}
	sort.Strings(names)
	return names
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool { return db.Table(name) != nil }

// meterFor resolves the resource meter governing one statement: a meter
// installed in the context (callers metering a whole multi-statement
// operation) wins; otherwise a fresh per-statement meter is built from
// the context and the engine's configured step budget. Nil when there is
// nothing to govern, which keeps the ungoverned path free.
func (db *DB) meterFor(ctx context.Context) *resource.Meter {
	if m := resource.FromContext(ctx); m != nil {
		return m
	}
	return resource.NewMeter(ctx, db.opts.MaxQuerySteps)
}

// Exec parses and executes a statement that returns no rows (DDL or DML)
// and reports the number of rows affected.
func (db *DB) Exec(sql string, params ...Value) (int, error) {
	return db.ExecCtx(context.Background(), sql, params...)
}

// InsertRows bulk-appends pre-ordered rows to the named table, bypassing
// SQL parsing and expression evaluation entirely. Each row must carry one
// value per schema column in schema order; validation and index
// maintenance match INSERT exactly. Rows whose values already have their
// column's exact kind are stored without copying — the table aliases the
// slice, so callers must treat submitted rows as immutable from then on
// (cached shred fragments are; that is what lets one fragment feed every
// rebuilt snapshot). Returns the number of rows inserted before any
// error.
func (db *DB) InsertRows(table string, rows [][]Value) (int, error) {
	if db.frozen.Load() {
		return 0, ErrFrozen
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return 0, fmt.Errorf("sql: table %s does not exist", table)
	}
	db.stats.statements.Add(1)
	obsStatements.Inc()
	t.rows = slices.Grow(t.rows, len(rows))
	n := 0
	for _, row := range rows {
		if err := t.insertShared(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ExecCtx is Exec governed by a context: cancellation and the engine's
// step budget abort DML row scans with a typed error.
func (db *DB) ExecCtx(ctx context.Context, sql string, params ...Value) (int, error) {
	stmt, err := parseWithLimit(sql, db.limits)
	if err != nil {
		return 0, err
	}
	return db.ExecStmtCtx(ctx, stmt, params...)
}

// ExecStmt executes an already-parsed statement.
func (db *DB) ExecStmt(stmt Statement, params ...Value) (int, error) {
	return db.ExecStmtCtx(context.Background(), stmt, params...)
}

// ExecStmtCtx is ExecStmt governed by a context.
func (db *DB) ExecStmtCtx(ctx context.Context, stmt Statement, params ...Value) (int, error) {
	if err := faultkit.Inject(faultkit.PointRelDBQuery); err != nil {
		return 0, err
	}
	if db.frozen.Load() {
		return 0, ErrFrozen
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stats.statements.Add(1)
	obsStatements.Inc()
	st := newExecState(db.meterFor(ctx))
	defer db.finish(st)
	switch s := stmt.(type) {
	case *CreateTableStmt:
		db.cat.Store(nil)
		return 0, db.createTable(s)
	case *CreateIndexStmt:
		db.cat.Store(nil)
		return 0, db.createIndex(s)
	case *DropTableStmt:
		key := strings.ToLower(s.Table)
		if _, ok := db.tables[key]; !ok {
			return 0, fmt.Errorf("sql: table %s does not exist", s.Table)
		}
		delete(db.tables, key)
		db.cat.Store(nil)
		// A later table with the same name restarts its version counter,
		// so a stale snapshot could alias it; drop the cache entry
		// (copy-on-write, so in-flight readers keep a coherent map).
		db.viewMu.Lock()
		cur := *db.viewCache.Load()
		if _, cached := cur[key]; cached {
			next := make(map[string]*viewSnapshot, len(cur))
			for k, v := range cur {
				if k != key {
					next[k] = v
				}
			}
			db.viewCache.Store(&next)
		}
		db.viewMu.Unlock()
		return 0, nil
	case *InsertStmt:
		return db.execInsert(s, params, st)
	case *UpdateStmt:
		return db.execUpdate(s, params, st)
	case *DeleteStmt:
		return db.execDelete(s, params, st)
	case *SelectStmt:
		rows, err := db.selectRows(s, params, st)
		if err != nil {
			return 0, err
		}
		return len(rows.Data), nil
	}
	return 0, fmt.Errorf("sql: cannot execute %T", stmt)
}

// Query parses and executes a SELECT and returns its rows.
func (db *DB) Query(sql string, params ...Value) (*Rows, error) {
	return db.QueryCtx(context.Background(), sql, params...)
}

// QueryCtx is Query governed by a context: cancellation (checked
// periodically by the row evaluator) and the engine's step budget abort
// execution with ErrCanceled / ErrBudgetExceeded.
func (db *DB) QueryCtx(ctx context.Context, sql string, params ...Value) (*Rows, error) {
	stmt, err := parseWithLimit(sql, db.limits)
	if err != nil {
		return nil, err
	}
	return db.QueryStmtCtx(ctx, stmt, params...)
}

// QueryStmt executes an already-parsed SELECT statement. Reusing a parsed
// statement skips SQL parsing, which is what the conversion-cache ablation
// benchmark measures. SELECTs take only the shared lock, so any number of
// them run in parallel.
func (db *DB) QueryStmt(stmt Statement, params ...Value) (*Rows, error) {
	return db.QueryStmtCtx(context.Background(), stmt, params...)
}

// QueryStmtCtx is QueryStmt governed by a context.
func (db *DB) QueryStmtCtx(ctx context.Context, stmt Statement, params ...Value) (*Rows, error) {
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: Query requires a SELECT, got %T", stmt)
	}
	if err := faultkit.Inject(faultkit.PointRelDBQuery); err != nil {
		return nil, err
	}
	// A frozen database cannot mutate, so the shared lock buys nothing
	// and its cache-line traffic is exactly what multi-core matching
	// must not pay.
	if !db.frozen.Load() {
		db.mu.RLock()
		defer db.mu.RUnlock()
	}
	db.stats.statements.Add(1)
	obsStatements.Inc()
	st := newExecState(db.meterFor(ctx))
	defer db.finish(st)
	return db.selectRows(sel, params, st)
}

// QueryExists executes a SELECT and reports whether it produced any row,
// stopping at the first. This is the primitive preference matching uses.
func (db *DB) QueryExists(sql string, params ...Value) (bool, error) {
	return db.QueryExistsCtx(context.Background(), sql, params...)
}

// QueryExistsCtx is QueryExists governed by a context.
func (db *DB) QueryExistsCtx(ctx context.Context, sql string, params ...Value) (bool, error) {
	stmt, err := parseWithLimit(sql, db.limits)
	if err != nil {
		return false, err
	}
	return db.QueryExistsStmtCtx(ctx, stmt, params...)
}

// Prepare parses a statement under the engine's complexity limits without
// executing it, like a database PREPARE. Statements beyond the limits fail
// here with ErrTooComplex.
func (db *DB) Prepare(sql string) (Statement, error) {
	return parseWithLimit(sql, db.limits)
}

// QueryExistsStmt is QueryExists over an already-prepared statement.
func (db *DB) QueryExistsStmt(stmt Statement, params ...Value) (bool, error) {
	return db.QueryExistsStmtCtx(context.Background(), stmt, params...)
}

// QueryExistsStmtCtx is QueryExistsStmt governed by a context. This is
// the primitive the matching hot path calls once per preference rule; a
// meter installed in the context spans all of a match's statements.
func (db *DB) QueryExistsStmtCtx(ctx context.Context, stmt Statement, params ...Value) (bool, error) {
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return false, fmt.Errorf("sql: QueryExistsStmt requires a SELECT, got %T", stmt)
	}
	if err := faultkit.Inject(faultkit.PointRelDBQuery); err != nil {
		return false, err
	}
	if !db.frozen.Load() {
		db.mu.RLock()
		defer db.mu.RUnlock()
	}
	db.stats.statements.Add(1)
	obsStatements.Inc()
	st := newExecState(db.meterFor(ctx))
	defer db.finish(st)
	return db.selectExists(sel, params, st)
}

// MustExec is Exec that panics on error; intended for tests and fixtures.
func (db *DB) MustExec(sql string, params ...Value) {
	if _, err := db.Exec(sql, params...); err != nil {
		panic(err)
	}
}

func (db *DB) createTable(s *CreateTableStmt) error {
	key := strings.ToLower(s.Table)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("sql: table %s already exists", s.Table)
	}
	schema, err := NewTableSchema(s.Table, s.Columns, s.PrimaryKey)
	if err != nil {
		return err
	}
	db.tables[key] = newTable(schema)
	return nil
}

func (db *DB) createIndex(s *CreateIndexStmt) error {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return fmt.Errorf("sql: table %s does not exist", s.Table)
	}
	return t.addIndex(s.Name, s.Columns, s.Unique)
}

func (db *DB) execInsert(s *InsertStmt, params []Value, st *execState) (int, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("sql: table %s does not exist", s.Table)
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.schema.Columns))
		for i, c := range t.schema.Columns {
			cols[i] = c.Name
		}
	}
	ords, err := t.schema.ordinals(cols)
	if err != nil {
		return 0, err
	}
	// The values see no table: they bind in an empty scope.
	dc := db.catalog()
	bd := newBinder(dc)
	rows := make([]int32, len(s.Rows))
	for i, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return 0, fmt.Errorf("sql: INSERT has %d values for %d columns", len(exprRow), len(ords))
		}
		if rows[i], err = bd.exprs(exprRow, -1); err != nil {
			return 0, err
		}
	}
	if err := st.begin(db, dc, bd.p, params); err != nil {
		return 0, err
	}
	for n, values := range rows {
		row := make([]Value, len(t.schema.Columns))
		for i, e := range bd.p.list(values) {
			v, err := st.eval(e)
			if err != nil {
				return n, err
			}
			row[ords[i]] = v
		}
		if err := t.insert(row); err != nil {
			return n, err
		}
	}
	return len(rows), nil
}

// matching scans t — the one source of block 0, the bound scope of an
// UPDATE or DELETE — and returns the ids of the rows its WHERE accepts.
func (st *execState) matching(t *Table) ([]int, error) {
	var ids []int
	for id, row := range t.rows {
		if row == nil {
			continue
		}
		st.rows++
		if err := st.step(1); err != nil {
			return nil, err
		}
		st.frame[0] = row
		ok, err := st.filter(&st.plan.blocks[0])
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func (db *DB) execUpdate(s *UpdateStmt, params []Value, st *execState) (int, error) {
	dc := db.catalog()
	bd := newBinder(dc)
	if err := bd.tableBlock(s.Table, s.Where); err != nil {
		return 0, err
	}
	t := dc.byID[bd.p.sources[0].table]
	setOrds := make([]int, len(s.Set))
	set := make([]int32, len(s.Set))
	for i, c := range s.Set {
		if setOrds[i] = t.schema.ColumnIndex(c.Column); setOrds[i] < 0 {
			return 0, fmt.Errorf("sql: table %s has no column %s", s.Table, c.Column)
		}
		var err error
		if set[i], err = bd.expr(c.Value, 0); err != nil {
			return 0, err
		}
	}
	if err := st.begin(db, dc, bd.p, params); err != nil {
		return 0, err
	}
	// Collect matching ids first, then mutate, so the scan is stable.
	ids, err := st.matching(t)
	if err != nil {
		return 0, err
	}
	for i, id := range ids {
		st.frame[0] = t.rows[id]
		newRow := slices.Clone(t.rows[id])
		for j, e := range set {
			v, err := st.eval(e)
			if err != nil {
				return i, err
			}
			newRow[setOrds[j]] = v
		}
		if err := t.update(id, newRow); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

func (db *DB) execDelete(s *DeleteStmt, params []Value, st *execState) (int, error) {
	dc := db.catalog()
	bd := newBinder(dc)
	if err := bd.tableBlock(s.Table, s.Where); err != nil {
		return 0, err
	}
	if err := st.begin(db, dc, bd.p, params); err != nil {
		return 0, err
	}
	t := dc.byID[bd.p.sources[0].table]
	ids, err := st.matching(t)
	if err != nil {
		return 0, err
	}
	for _, id := range ids {
		t.delete(id)
	}
	return len(ids), nil
}

// errEnough unwinds join recursion once the caller's row quota is met.
var errEnough = errors.New("enough rows")

// execState is everything one executing statement owns: the bound
// plan's row frame, the memo of its derived tables, its work counters
// and its resource meter. Plans are shared and immutable; all that
// changes while a statement runs is here, and the state is pooled, so a
// statement whose blocks only test for existence — every preference
// rule — allocates nothing.
type execState struct {
	db     *DB
	plan   *plan
	tables []*Table // the database's tables in catalog order
	params []Value
	// frame holds the current row of every FROM source of the statement,
	// by frame slot; bound column references index it directly. probed
	// records, per slot, whether the source's current rows came from its
	// probe, which is what lets the filter skip the conjuncts the probe
	// key was built from.
	frame  [][]Value
	probed []bool
	// derived holds, per slot, the materialization of a derived table.
	derived []derivedRows
	// key is the scratch buffer probe keys are encoded into.
	key []byte
	// agg is the group whose rows aggregate functions range over; nil
	// outside the grouped phase of a block.
	agg *aggGroup
	// meter is the statement's resource governor: the row evaluator
	// charges it one step per row visited (and one per query block
	// entered), aborting with ErrBudgetExceeded / ErrCanceled. Nil means
	// ungoverned; charging a nil meter is a no-op.
	meter *resource.Meter
	// rows and idxLookups accumulate this statement's work locally (the
	// statement runs on one goroutine) and are flushed to the DB's
	// atomic stats and the obs registry once, at statement end — one
	// atomic add per statement instead of one per row.
	rows       int64
	idxLookups int64
}

// derivedRows is the materialization of one derived table for the block
// entry (or, for the cacheable "(SELECT * FROM t)" shape, the statement)
// that is running. rows and arena are reused from one entry to the next.
type derivedRows struct {
	rows  [][]Value
	arena []Value
	// view is set when rows are the DB-level view cache's; its hash
	// indexes are shared across statements.
	view *viewSnapshot
	// index memoizes the hash index over a statement-cached
	// materialization, so it is built once per statement.
	index map[string][]int
	// cached marks rows as this statement's materialization of a
	// cacheable derived table.
	cached bool
}

// maxPooledArena is the largest derived-table buffer, in values, that a
// pooled execState keeps.
const maxPooledArena = 64

// execStatePool recycles per-statement state. The matching hot path runs
// one statement per preference rule; with the pool a statement reuses
// the frame, key buffer and derived-table buffers of the one before it.
var execStatePool = sync.Pool{New: func() any { return new(execState) }}

func newExecState(m *resource.Meter) *execState {
	st := execStatePool.Get().(*execState)
	st.meter = m
	return st
}

// begin readies the state to execute a plan bound to dc against db. A
// statement that reads more parameters than it was given fails here,
// before any row is read.
func (st *execState) begin(db *DB, dc *catalog, p *plan, params []Value) error {
	if len(params) < p.nParams {
		return fmt.Errorf("sql: parameter %d not bound (have %d)", len(params)+1, len(params))
	}
	st.db, st.plan, st.tables, st.params = db, p, dc.byID, params
	st.frame = slices.Grow(st.frame[:0], p.nSlots)[:p.nSlots]
	st.probed = slices.Grow(st.probed[:0], p.nSlots)[:p.nSlots]
	st.derived = slices.Grow(st.derived[:0], p.nSlots)[:p.nSlots]
	return nil
}

// finish flushes a statement's locally accumulated work counters to the
// DB's stats and the process-wide obs registry, then returns the state
// to the pool. Deferred by every statement entry point; the statement
// must not retain the state past this call.
func (db *DB) finish(st *execState) {
	if st.rows > 0 {
		db.stats.rowsScanned.Add(st.rows)
		obsRowsScanned.Add(st.rows)
	}
	if st.idxLookups > 0 {
		db.stats.indexLookups.Add(st.idxLookups)
		obsIndexLookups.Add(st.idxLookups)
	}
	clear(st.frame)
	for i := range st.derived {
		d := &st.derived[i]
		if d.view != nil || cap(d.arena) > maxPooledArena {
			*d = derivedRows{} // the view's rows are not ours; large buffers are not worth keeping
			continue
		}
		clear(d.arena[:cap(d.arena)]) // keep the buffers, not what they referred to
		*d = derivedRows{rows: d.rows[:0], arena: d.arena[:0]}
	}
	st.db, st.plan, st.tables, st.params, st.agg, st.meter = nil, nil, nil, nil, nil, nil
	st.rows, st.idxLookups = 0, 0
	execStatePool.Put(st)
}

// step charges n units of row-evaluator work against the statement's
// meter.
func (st *execState) step(n int64) error { return st.meter.Step(n) }

// selectRows binds (or reuses the bound form of) a SELECT and returns
// every row it produces. The caller must hold db.mu, shared or
// exclusive, or the database must be frozen: execution never mutates
// table state, and its two caches (the DB-level view cache and the
// per-snapshot derived indexes) synchronize themselves.
func (db *DB) selectRows(sel *SelectStmt, params []Value, st *execState) (*Rows, error) {
	r := blockRun{keep: true}
	if err := db.runSelect(sel, params, st, &r); err != nil {
		return nil, err
	}
	return &Rows{Columns: slices.Clone(st.plan.blocks[0].columns), Data: r.out}, nil
}

// selectExists is selectRows for a caller that only asks whether there
// is a row: it stops at the first and materializes none.
func (db *DB) selectExists(sel *SelectStmt, params []Value, st *execState) (bool, error) {
	r := blockRun{need: 1}
	err := db.runSelect(sel, params, st, &r)
	return r.n > 0, err
}

func (db *DB) runSelect(sel *SelectStmt, params []Value, st *execState, r *blockRun) error {
	p, dc, err := db.planFor(sel)
	if err != nil {
		return err
	}
	if err := st.begin(db, dc, p, params); err != nil {
		return err
	}
	return st.run(&p.blocks[0], r)
}

// blockRun is the output side of one entry into a block.
type blockRun struct {
	need  int  // a simple block stops after this many rows; 0 means all
	keep  bool // collect the rows in out (otherwise only count them)
	n     int  // rows produced
	out   [][]Value
	arena []Value   // rows are cut from chunks of this
	keys  [][]Value // ORDER BY keys, parallel to out
	seen  map[string]bool
	// groups collects, per GROUP BY key, a snapshot of the block's part
	// of the frame for every member row.
	groups   []*aggGroup
	groupIdx map[string]int
}

// aggGroup is one group of a grouped block: the frame slots the block
// owns and, per member row, what they held.
type aggGroup struct {
	base  int
	snaps [][][]Value
}

// newRow cuts an n-value row from the arena. Chunks are never copied,
// so rows cut earlier stay valid as the arena grows.
func (r *blockRun) newRow(n int) []Value {
	if cap(r.arena)-len(r.arena) < n {
		r.arena = make([]Value, 0, max(2*cap(r.arena), n, 16))
	}
	at := len(r.arena)
	r.arena = r.arena[:at+n]
	return r.arena[at : at+n : at+n]
}

// run enters block b once: it materializes the block's derived tables,
// joins its sources, and leaves in r what the block produced. Aggregates
// of an enclosing block are out of reach while it runs.
func (st *execState) run(b *block, r *blockRun) error {
	outer := st.agg
	st.agg = nil
	err := st.runBlock(b, r)
	st.agg = outer
	return err
}

func (st *execState) runBlock(b *block, r *blockRun) error {
	// Each query block entered charges one step, so deeply nested
	// subqueries consume budget even over empty tables, and the
	// periodic context poll happens at least once per block.
	if err := st.step(1); err != nil {
		return err
	}
	if !b.simple {
		r.keep, r.need = true, 0
	}
	sources := st.plan.sourcesOf(b)
	for i := range sources {
		if sources[i].sub >= 0 {
			if err := st.materialize(&sources[i], int(b.base)+i); err != nil {
				return err
			}
		}
	}
	// A SELECT without FROM joins nothing: one conceptual row.
	if err := st.join(b, 0, r); err != nil && err != errEnough {
		return err
	}
	if b.grouped {
		if err := st.emitGroups(b, r); err != nil {
			return err
		}
	}
	if orderBy := st.plan.list(b.orderBy); len(orderBy) > 0 {
		idx := make([]int, len(r.out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool {
			kx, ky := r.keys[idx[x]], r.keys[idx[y]]
			for i := range kx {
				c := compareForOrder(kx[i], ky[i])
				if c == 0 {
					continue
				}
				if orderBy[2*i+1] != 0 { // descending
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([][]Value, len(r.out))
		for i, j := range idx {
			sorted[i] = r.out[j]
		}
		r.out = sorted
	}
	if b.limit >= 0 && len(r.out) > int(b.limit) {
		r.out = r.out[:b.limit]
	}
	if r.keep {
		r.n = len(r.out)
	}
	return nil
}

// materialize fills the derived table at slot for this entry of its
// block: from the view cache, from the statement's earlier
// materialization, or by running the subquery.
func (st *execState) materialize(src *source, slot int) error {
	d := &st.derived[slot]
	if src.view >= 0 && !st.db.opts.DisableViewCache {
		d.view = st.db.viewSnapshot(st.tables[src.view])
		d.rows = d.view.rows
		return nil
	}
	if d.cached {
		return nil
	}
	r := blockRun{keep: true, out: d.rows[:0], arena: d.arena[:0]}
	err := st.run(&st.plan.blocks[src.sub], &r)
	d.rows, d.arena, d.index, d.cached = r.out, r.arena, nil, src.view >= 0 && err == nil
	return err
}

// join binds sources i.. of b in turn — each by its probe when it has
// one, by scan otherwise — and emits a row for every combination.
func (st *execState) join(b *block, i int, r *blockRun) error {
	if i == int(b.nsrc) {
		return st.emit(b, r)
	}
	src := &st.plan.sources[int(b.src)+i]
	slot := int(b.base) + i
	probe := src.key >= 0 && !st.db.opts.DisableIndexes
	if src.sub < 0 {
		t := st.tables[src.table]
		if st.probed[slot] = probe; probe {
			key, err := st.probeKey(src.key)
			if key == nil {
				return err
			}
			for _, id := range t.byName[src.index].buckets[string(key)] {
				if row := t.rows[id]; row != nil {
					if err := st.joinRow(b, i, r, row); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for _, row := range t.rows {
			if row != nil {
				st.rows++
				if err := st.joinRow(b, i, r, row); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// A derived table: equality joins against a materialization of any
	// size worth hashing are hash probes.
	d := &st.derived[slot]
	if st.probed[slot] = probe && len(d.rows) >= 8; st.probed[slot] {
		var buckets map[string][]int
		switch {
		case d.view != nil:
			// Shared across statements; the snapshot builds it under its own
			// lock so concurrent SELECTs can race the build safely.
			buckets = d.view.index(src.hash.name, src.hash.cols)
		case d.cached:
			if d.index == nil {
				d.index = buildDerivedIndex(d.rows, src.hash.cols)
			}
			buckets = d.index
		default:
			buckets = buildDerivedIndex(d.rows, src.hash.cols)
		}
		key, err := st.probeKey(src.key)
		if key == nil {
			return err
		}
		for _, id := range buckets[string(key)] {
			if err := st.joinRow(b, i, r, d.rows[id]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range d.rows {
		st.rows++
		if err := st.joinRow(b, i, r, row); err != nil {
			return err
		}
	}
	return nil
}

// joinRow charges one candidate row of source i, puts it in the frame
// and joins the sources after it.
func (st *execState) joinRow(b *block, i int, r *blockRun, row []Value) error {
	if err := st.step(1); err != nil {
		return err
	}
	st.frame[int(b.base)+i] = row
	return st.join(b, i+1, r)
}

// probeKey evaluates a probe's key expressions against the frame and
// encodes them as the key of the lookup it counts. A NULL component
// matches nothing: the key is then nil, with no error, and no lookup.
func (st *execState) probeKey(key int32) ([]byte, error) {
	buf := st.key[:0]
	for _, e := range st.plan.list(key) {
		v, err := st.eval(e)
		if err != nil || v.IsNull() {
			return nil, err
		}
		buf = appendKeyValue(buf, v)
	}
	st.key = buf
	st.idxLookups++
	return buf, nil
}

// filter evaluates b's WHERE against the frame, skipping the conjuncts
// the probes that produced the current rows were keyed on. Like the AND
// chain it came from it stops at the first false conjunct but not at a
// NULL one, which rejects the row while the conjuncts after it are still
// evaluated (and their subqueries charged).
func (st *execState) filter(b *block) (bool, error) {
	pass := true
	for _, c := range st.plan.whereOf(b) {
		if c.cover >= 0 && st.probed[c.cover] {
			continue
		}
		v, err := st.eval(c.e)
		if err != nil {
			return false, err
		}
		if t, known := v.AsBool(); !known {
			pass = false
		} else if !t {
			return false, nil
		}
	}
	return pass, nil
}

// emit takes the frame's current combination of rows through the
// block's WHERE and on to its output: a group, a count, or a projected
// row.
func (st *execState) emit(b *block, r *blockRun) error {
	if ok, err := st.filter(b); !ok {
		return err
	}
	p := st.plan
	mine := st.frame[b.base : b.base+b.nsrc] // the block's part of the frame
	if b.grouped {
		groupBy := p.list(b.groupBy)
		key := make([]Value, len(groupBy))
		for i, g := range groupBy {
			v, err := st.eval(g)
			if err != nil {
				return err
			}
			key[i] = v
		}
		k := encodeKey(key)
		gi, ok := r.groupIdx[k]
		if !ok {
			if r.groupIdx == nil {
				r.groupIdx = map[string]int{}
			}
			gi = len(r.groups)
			r.groupIdx[k] = gi
			r.groups = append(r.groups, &aggGroup{base: int(b.base)})
		}
		r.groups[gi].snaps = append(r.groups[gi].snaps, slices.Clone(mine))
		return nil
	}
	items := p.list(b.items)
	if !r.keep {
		if !b.pure {
			for _, it := range items {
				if _, err := st.eval(it); err != nil {
					return err
				}
			}
		}
		if r.n++; r.n >= r.need && r.need > 0 {
			return errEnough
		}
		return nil
	}
	var row []Value
	if b.star {
		row = r.newRow(len(b.columns))[:0]
		for _, src := range mine {
			row = append(row, src...)
		}
	} else {
		row = r.newRow(len(items))
		for i, it := range items {
			v, err := st.eval(it)
			if err != nil {
				return err
			}
			row[i] = v
		}
	}
	if b.distinct {
		k := encodeKey(row)
		if r.seen[k] {
			return nil
		}
		if r.seen == nil {
			r.seen = map[string]bool{}
		}
		r.seen[k] = true
	}
	if b.orderBy >= 0 {
		keys, err := st.orderKeys(b)
		if err != nil {
			return err
		}
		r.keys = append(r.keys, keys)
	}
	r.out = append(r.out, row)
	if b.simple && r.need > 0 && len(r.out) >= r.need {
		return errEnough
	}
	return nil
}

func (st *execState) orderKeys(b *block) ([]Value, error) {
	orderBy := st.plan.list(b.orderBy) // (node, descending) pairs
	keys := make([]Value, len(orderBy)/2)
	for i := range keys {
		v, err := st.eval(orderBy[2*i])
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// emitGroups is the second phase of a grouped block: HAVING, projection
// and ORDER BY keys are evaluated once per group, aggregates ranging
// over the group's member rows and everything else reading a
// representative row (the first member).
func (st *execState) emitGroups(b *block, r *blockRun) error {
	// An aggregate query with no GROUP BY aggregates over everything,
	// producing one row even for empty input.
	if b.groupBy < 0 && len(r.groups) == 0 {
		r.groups = append(r.groups, &aggGroup{base: int(b.base)})
	}
	items := st.plan.list(b.items)
	for _, g := range r.groups {
		if len(g.snaps) > 0 {
			copy(st.frame[b.base:], g.snaps[0])
		} else {
			for i, src := range st.plan.sourcesOf(b) {
				st.frame[int(b.base)+i] = make([]Value, len(src.cols))
			}
		}
		st.agg = g
		if b.having >= 0 {
			v, err := st.eval(b.having)
			if err != nil {
				return err
			}
			if !truthy(v) {
				continue
			}
		}
		row := r.newRow(len(items))
		for i, it := range items {
			v, err := st.eval(it)
			if err != nil {
				return err
			}
			row[i] = v
		}
		if b.orderBy >= 0 {
			keys, err := st.orderKeys(b)
			if err != nil {
				return err
			}
			r.keys = append(r.keys, keys)
		}
		r.out = append(r.out, row)
	}
	st.agg = nil
	return nil
}

// compareForOrder orders values with NULLs first.
func compareForOrder(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	return Compare(a, b)
}

// viewSnapshot serves "(SELECT * FROM t)" from the materialized-view
// cache, refreshing it when the table has changed. The caller must hold
// db.mu (shared or exclusive) or the database must be frozen; the table
// therefore cannot mutate while the snapshot is built. The hit path is
// one atomic load and a map lookup — no lock — so the XTABLE engine's
// per-rule view probes never serialize readers. Concurrent readers that
// find the cache stale serialize on viewMu: the first materializes and
// publishes a copied map, the rest reuse.
func (db *DB) viewSnapshot(t *Table) *viewSnapshot {
	if snap := (*db.viewCache.Load())[t.key]; snap != nil && snap.version == t.version {
		obsViewHits.Inc()
		return snap
	}
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	cur := *db.viewCache.Load()
	snap := cur[t.key]
	if snap == nil || snap.version != t.version {
		obsViewMisses.Inc()
		rows := make([][]Value, 0, t.live)
		t.scan(func(_ int, row []Value) bool {
			rows = append(rows, row)
			return true
		})
		snap = newViewSnapshot(t.version, rows)
		next := make(map[string]*viewSnapshot, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[t.key] = snap
		db.viewCache.Store(&next)
	} else {
		obsViewHits.Inc()
	}
	return snap
}

func buildDerivedIndex(rows [][]Value, ords []int) map[string][]int {
	obsIndexBuilds.Inc()
	buckets := make(map[string][]int, len(rows))
	vals := make([]Value, len(ords))
	for id, row := range rows {
		for i, o := range ords {
			vals[i] = row[o]
		}
		k := encodeKey(vals)
		buckets[k] = append(buckets[k], id)
	}
	return buckets
}
