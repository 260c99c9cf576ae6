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
		return 0, db.createTable(s)
	case *CreateIndexStmt:
		return 0, db.createIndex(s)
	case *DropTableStmt:
		key := strings.ToLower(s.Table)
		if _, ok := db.tables[key]; !ok {
			return 0, fmt.Errorf("sql: table %s does not exist", s.Table)
		}
		delete(db.tables, key)
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
		rows, err := db.execSelect(s, nil, params, 0, st)
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
	return db.execSelect(sel, nil, params, 0, st)
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
	rows, err := db.execSelect(sel, nil, params, 1, st)
	if err != nil {
		return false, err
	}
	return len(rows.Data) > 0, nil
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
	ctx := &evalCtx{db: db, env: &env{}, params: params, st: st}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return n, fmt.Errorf("sql: INSERT has %d values for %d columns", len(exprRow), len(ords))
		}
		row := make([]Value, len(t.schema.Columns))
		for i, e := range exprRow {
			v, err := ctx.eval(e)
			if err != nil {
				return n, err
			}
			row[ords[i]] = v
		}
		if err := t.insert(row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (db *DB) execUpdate(s *UpdateStmt, params []Value, st *execState) (int, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("sql: table %s does not exist", s.Table)
	}
	cols := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	b := &binding{name: strings.ToLower(t.schema.Name), cols: cols}
	scope := &env{bindings: []*binding{b}}
	ctx := &evalCtx{db: db, env: scope, params: params, st: st}
	setOrds := make([]int, len(s.Set))
	for i, sc := range s.Set {
		ord := t.schema.ColumnIndex(sc.Column)
		if ord < 0 {
			return 0, fmt.Errorf("sql: table %s has no column %s", s.Table, sc.Column)
		}
		setOrds[i] = ord
	}
	// Collect matching ids first, then mutate, so the scan is stable.
	var ids [][]Value
	var idNums []int
	var scanErr error
	t.scan(func(id int, row []Value) bool {
		st.rows++
		if err := st.step(1); err != nil {
			scanErr = err
			return false
		}
		b.row = row
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		idNums = append(idNums, id)
		ids = append(ids, row)
		return true
	})
	if scanErr != nil {
		return 0, scanErr
	}
	for i, id := range idNums {
		b.row = ids[i]
		newRow := append([]Value(nil), ids[i]...)
		for j, sc := range s.Set {
			v, err := ctx.eval(sc.Value)
			if err != nil {
				return i, err
			}
			newRow[setOrds[j]] = v
		}
		if err := t.update(id, newRow); err != nil {
			return i, err
		}
	}
	return len(idNums), nil
}

func (db *DB) execDelete(s *DeleteStmt, params []Value, st *execState) (int, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("sql: table %s does not exist", s.Table)
	}
	cols := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	b := &binding{name: strings.ToLower(t.schema.Name), cols: cols}
	ctx := &evalCtx{db: db, env: &env{bindings: []*binding{b}}, params: params, st: st}
	var ids []int
	var scanErr error
	t.scan(func(id int, row []Value) bool {
		st.rows++
		if err := st.step(1); err != nil {
			scanErr = err
			return false
		}
		b.row = row
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				scanErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if scanErr != nil {
		return 0, scanErr
	}
	for _, id := range ids {
		t.delete(id)
	}
	return len(ids), nil
}

// errEnough unwinds join recursion once the caller's row quota is met.
var errEnough = errors.New("enough rows")

// execState carries per-statement execution caches. The derived map
// memoizes materializations of cacheable derived tables — the
// "(SELECT * FROM t)" view-reconstruction wrappers the XTABLE path
// generates — so each view is materialized once per statement instead of
// once per correlated subquery evaluation.
type execState struct {
	derived map[*SelectStmt]*Rows
	// derivedIdx memoizes hash indexes built over cached derived tables,
	// keyed by the derived statement and the indexed column set. They
	// make equality joins against materialized views hash probes instead
	// of repeated scans.
	derivedIdx map[*SelectStmt]map[string]map[string][]int
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
	clear(st.derived)
	clear(st.derivedIdx)
	st.meter = nil
	st.rows, st.idxLookups = 0, 0
	execStatePool.Put(st)
}

// step charges n units of row-evaluator work against the statement's
// meter.
func (st *execState) step(n int64) error { return st.meter.Step(n) }

// cacheableDerived reports whether a derived table can be memoized for
// the whole statement: a bare projection of one base table with no
// filtering, which cannot be correlated to any outer binding.
func cacheableDerived(sel *SelectStmt) bool {
	return sel.Star && len(sel.From) == 1 && sel.From[0].Table != "" &&
		sel.Where == nil && len(sel.GroupBy) == 0 && sel.Having == nil &&
		len(sel.OrderBy) == 0 && sel.Limit < 0 && !sel.Distinct
}

// fromSource is a bound FROM item: either a base table (with index access)
// or a materialized derived table.
type fromSource struct {
	binding *binding
	table   *Table    // nil for derived tables
	rows    [][]Value // materialized rows for derived tables
	// derivedStmt is set when rows came from the statement-level derived
	// cache, enabling memoized hash indexes over them.
	derivedStmt *SelectStmt
	// view is set when rows came from the DB-level bare-view cache; its
	// hash indexes are shared across statements.
	view *viewSnapshot
}

// bareViewSnapshot serves "(SELECT * FROM t)" from the materialized-view
// cache, refreshing it when the table has changed. The caller must hold
// db.mu (shared or exclusive) or the database must be frozen; the table
// therefore cannot mutate while the snapshot is built. The hit path is
// one atomic load and a map lookup — no lock — so the XTABLE engine's
// per-rule view probes never serialize readers. Concurrent readers that
// find the cache stale serialize on viewMu: the first materializes and
// publishes a copied map, the rest reuse.
func (db *DB) bareViewSnapshot(sel *SelectStmt) (*viewSnapshot, []string, bool) {
	if db.opts.DisableViewCache || !cacheableDerived(sel) {
		return nil, nil, false
	}
	t, ok := db.tables[strings.ToLower(sel.From[0].Table)]
	if !ok {
		return nil, nil, false
	}
	cols := make([]string, len(t.schema.Columns))
	for i, c := range t.schema.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	key := strings.ToLower(t.schema.Name)
	if snap := (*db.viewCache.Load())[key]; snap != nil && snap.version == t.version {
		obsViewHits.Inc()
		return snap, cols, true
	}
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	cur := *db.viewCache.Load()
	snap := cur[key]
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
		next[key] = snap
		db.viewCache.Store(&next)
	} else {
		obsViewHits.Inc()
	}
	return snap, cols, true
}

// execStatePool recycles per-statement state. The matching hot path runs
// one statement per preference rule; without the pool each statement
// allocates a fresh execState (and, for XTABLE, its derived-cache maps),
// which at scale-out turns into allocator and GC pressure shared across
// every worker.
var execStatePool = sync.Pool{New: func() any { return new(execState) }}

func newExecState(m *resource.Meter) *execState {
	st := execStatePool.Get().(*execState)
	st.meter = m
	return st
}

// execSelect runs a SELECT. outer is the enclosing scope for correlated
// subqueries (nil at top level). needRows > 0 allows stopping early once
// that many output rows exist (only when no ordering/grouping/distinct
// would be violated). The caller must hold db.mu, shared or exclusive:
// execution never mutates table state, and its two caches (the DB-level
// view cache and the per-snapshot derived indexes) synchronize themselves.
func (db *DB) execSelect(sel *SelectStmt, outer *env, params []Value, needRows int, st *execState) (*Rows, error) {
	// Each query block entered charges one step, so deeply nested
	// subqueries consume budget even over empty tables, and the
	// periodic context poll happens at least once per block.
	if err := st.step(1); err != nil {
		return nil, err
	}
	// Bind FROM items.
	sources := make([]*fromSource, len(sel.From))
	scope := &env{parent: outer}
	for i, fi := range sel.From {
		src := &fromSource{}
		name := strings.ToLower(fi.Name())
		if fi.Subquery != nil {
			if snap, cols, ok := db.bareViewSnapshot(fi.Subquery); ok {
				src.binding = &binding{name: name, cols: cols}
				src.rows = snap.rows
				src.view = snap
				sources[i] = src
				scope.bindings = append(scope.bindings, src.binding)
				continue
			}
			var sub *Rows
			if cacheableDerived(fi.Subquery) {
				if cached, ok := st.derived[fi.Subquery]; ok {
					sub = cached
				}
			}
			if sub == nil {
				var err error
				sub, err = db.execSelect(fi.Subquery, outer, params, 0, st)
				if err != nil {
					return nil, err
				}
				if cacheableDerived(fi.Subquery) {
					if st.derived == nil {
						st.derived = map[*SelectStmt]*Rows{}
					}
					st.derived[fi.Subquery] = sub
				}
			}
			cols := make([]string, len(sub.Columns))
			for j, c := range sub.Columns {
				cols[j] = strings.ToLower(c)
			}
			src.binding = &binding{name: name, cols: cols}
			src.rows = sub.Data
			if cacheableDerived(fi.Subquery) {
				src.derivedStmt = fi.Subquery
			}
		} else {
			t, ok := db.tables[strings.ToLower(fi.Table)]
			if !ok {
				return nil, fmt.Errorf("sql: table %s does not exist", fi.Table)
			}
			cols := make([]string, len(t.schema.Columns))
			for j, c := range t.schema.Columns {
				cols[j] = strings.ToLower(c.Name)
			}
			src.binding = &binding{name: name, cols: cols}
			src.table = t
		}
		sources[i] = src
		scope.bindings = append(scope.bindings, src.binding)
	}
	for i := range sources {
		for j := i + 1; j < len(sources); j++ {
			if sources[i].binding.name == sources[j].binding.name {
				return nil, fmt.Errorf("sql: duplicate table alias %s", sources[i].binding.name)
			}
		}
	}

	ctx := &evalCtx{db: db, env: scope, params: params, st: st}
	conjuncts := splitAnd(sel.Where)

	grouped := len(sel.GroupBy) > 0 || hasAggregate(sel.Having)
	for _, it := range sel.Items {
		if hasAggregate(it.Expr) {
			grouped = true
		}
	}
	if grouped && sel.Star {
		return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregation")
	}

	// Output column names.
	var columns []string
	if sel.Star {
		for _, src := range sources {
			columns = append(columns, src.binding.cols...)
		}
	} else {
		for i, it := range sel.Items {
			switch {
			case it.Alias != "":
				columns = append(columns, it.Alias)
			default:
				if cr, ok := it.Expr.(*ColumnRef); ok {
					columns = append(columns, strings.ToLower(cr.Column))
				} else {
					columns = append(columns, fmt.Sprintf("col%d", i+1))
				}
			}
		}
	}

	earlyExit := needRows > 0 && !grouped && !sel.Distinct && len(sel.OrderBy) == 0 && sel.Limit < 0

	var out [][]Value
	var orderKeys [][]Value
	seen := map[string]bool{} // for DISTINCT

	// groups collects per-group snapshots of all binding rows.
	type group struct {
		key       []Value
		snapshots [][][]Value // one snapshot per member row: per-binding rows
	}
	var groups []*group
	groupIdx := map[string]int{}

	emit := func() error {
		if sel.Where != nil {
			v, err := ctx.eval(sel.Where)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
		}
		if grouped {
			keyVals := make([]Value, len(sel.GroupBy))
			for i, g := range sel.GroupBy {
				v, err := ctx.eval(g)
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			k := encodeKey(keyVals)
			gi, ok := groupIdx[k]
			if !ok {
				gi = len(groups)
				groupIdx[k] = gi
				groups = append(groups, &group{key: keyVals})
			}
			snap := make([][]Value, len(sources))
			for i, src := range sources {
				snap[i] = src.binding.row
			}
			groups[gi].snapshots = append(groups[gi].snapshots, snap)
			return nil
		}
		var row []Value
		if sel.Star {
			for _, src := range sources {
				row = append(row, src.binding.row...)
			}
		} else {
			row = make([]Value, len(sel.Items))
			for i, it := range sel.Items {
				v, err := ctx.eval(it.Expr)
				if err != nil {
					return err
				}
				row[i] = v
			}
		}
		if sel.Distinct {
			k := encodeKey(row)
			if seen[k] {
				return nil
			}
			seen[k] = true
		}
		if len(sel.OrderBy) > 0 {
			keys := make([]Value, len(sel.OrderBy))
			for i, oi := range sel.OrderBy {
				v, err := ctx.eval(oi.Expr)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			orderKeys = append(orderKeys, keys)
		}
		out = append(out, row)
		if earlyExit && len(out) >= needRows {
			return errEnough
		}
		return nil
	}

	var join func(i int) error
	join = func(i int) error {
		if i == len(sources) {
			return emit()
		}
		src := sources[i]
		if src.table != nil {
			if ids, usable := db.indexCandidates(src, conjuncts, sources[:i], outer, ctx); usable {
				for _, id := range ids {
					row := src.table.rows[id]
					if row == nil {
						continue
					}
					if err := st.step(1); err != nil {
						return err
					}
					src.binding.row = row
					if err := join(i + 1); err != nil {
						return err
					}
				}
				return nil
			}
			var scanErr error
			src.table.scan(func(_ int, row []Value) bool {
				st.rows++
				if err := st.step(1); err != nil {
					scanErr = err
					return false
				}
				src.binding.row = row
				if err := join(i + 1); err != nil {
					scanErr = err
					return false
				}
				return true
			})
			return scanErr
		}
		if ids, usable := db.derivedCandidates(src, conjuncts, sources[:i], outer, ctx, st); usable {
			for _, id := range ids {
				if err := st.step(1); err != nil {
					return err
				}
				src.binding.row = src.rows[id]
				if err := join(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		for _, row := range src.rows {
			st.rows++
			if err := st.step(1); err != nil {
				return err
			}
			src.binding.row = row
			if err := join(i + 1); err != nil {
				return err
			}
		}
		return nil
	}

	if len(sources) == 0 {
		// SELECT without FROM: a single conceptual row.
		if err := emit(); err != nil && err != errEnough {
			return nil, err
		}
	} else if err := join(0); err != nil && err != errEnough {
		return nil, err
	}

	if grouped {
		// An aggregate query with no GROUP BY aggregates over everything,
		// producing one row even for empty input.
		if len(sel.GroupBy) == 0 && len(groups) == 0 {
			groups = append(groups, &group{})
		}
		for _, g := range groups {
			// Rebind a representative row (first snapshot) so that
			// GROUP BY columns evaluate normally.
			if len(g.snapshots) > 0 {
				for i, src := range sources {
					src.binding.row = g.snapshots[0][i]
				}
			} else {
				for _, src := range sources {
					src.binding.row = make([]Value, len(src.binding.cols))
				}
			}
			agg := &aggCtx{ctx: ctx, sources: sources, snapshots: g.snapshots}
			if sel.Having != nil {
				v, err := agg.eval(sel.Having)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					continue
				}
			}
			row := make([]Value, len(sel.Items))
			for i, it := range sel.Items {
				v, err := agg.eval(it.Expr)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			if len(sel.OrderBy) > 0 {
				keys := make([]Value, len(sel.OrderBy))
				for i, oi := range sel.OrderBy {
					v, err := agg.eval(oi.Expr)
					if err != nil {
						return nil, err
					}
					keys[i] = v
				}
				orderKeys = append(orderKeys, keys)
			}
			out = append(out, row)
		}
	}

	if len(sel.OrderBy) > 0 {
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := orderKeys[idx[a]], orderKeys[idx[b]]
			for i, oi := range sel.OrderBy {
				c := compareForOrder(ka[i], kb[i])
				if c == 0 {
					continue
				}
				if oi.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([][]Value, len(out))
		for i, j := range idx {
			sorted[i] = out[j]
		}
		out = sorted
	}

	if sel.Limit >= 0 && len(out) > sel.Limit {
		out = out[:sel.Limit]
	}
	return &Rows{Columns: columns, Data: out}, nil
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

// indexCandidates attempts to satisfy the binding of src via a hash-index
// probe driven by equality conjuncts whose other side is already evaluable
// (constants, parameters, earlier bindings in this scope, or outer scopes).
// It returns (rowIDs, true) on success.
func (db *DB) indexCandidates(src *fromSource, conjuncts []Expr, boundBefore []*fromSource, outer *env, ctx *evalCtx) ([]int, bool) {
	if db.opts.DisableIndexes || src.table == nil {
		return nil, false
	}
	avail := equalityConjuncts(src, conjuncts, boundBefore, outer)
	if len(avail) == 0 {
		return nil, false
	}
	ords := make([]int, 0, len(avail))
	for o := range avail {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	ix := bestIndex(src.table, ords)
	if ix == nil {
		return nil, false
	}
	vals := make([]Value, len(ix.columns))
	for i, col := range ix.columns {
		v, err := ctx.eval(avail[col])
		if err != nil {
			return nil, false // fall back to scan; the error resurfaces there
		}
		if v.IsNull() {
			return []int{}, true // equality with NULL matches nothing
		}
		vals[i] = v
	}
	ctx.st.idxLookups++
	return src.table.lookup(ix, vals), true
}

// equalityConjuncts collects "src.col = <expr>" conjuncts whose right side
// is already evaluable (constants, parameters, earlier bindings, outer
// scopes), keyed by column ordinal.
func equalityConjuncts(src *fromSource, conjuncts []Expr, boundBefore []*fromSource, outer *env) map[int]Expr {
	avail := map[int]Expr{}
	for _, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		for _, try := range [][2]Expr{{be.Left, be.Right}, {be.Right, be.Left}} {
			cr, ok := try[0].(*ColumnRef)
			if !ok || cr.Table == "" {
				continue
			}
			if strings.ToLower(cr.Table) != src.binding.name {
				continue
			}
			ord := src.binding.colIndex(cr.Column)
			if ord < 0 {
				continue
			}
			if !evaluableNow(try[1], boundBefore, outer) {
				continue
			}
			if _, dup := avail[ord]; !dup {
				avail[ord] = try[1]
			}
			break
		}
	}
	return avail
}

// derivedCandidates probes (building on demand) a hash index over a
// materialized derived table, turning equality joins against views into
// hash joins. Indexes over statement-cached materializations are memoized
// in the execState so each is built once per statement.
func (db *DB) derivedCandidates(src *fromSource, conjuncts []Expr, boundBefore []*fromSource, outer *env, ctx *evalCtx, st *execState) ([]int, bool) {
	if db.opts.DisableIndexes || src.table != nil || len(src.rows) < 8 {
		return nil, false
	}
	avail := equalityConjuncts(src, conjuncts, boundBefore, outer)
	if len(avail) == 0 {
		return nil, false
	}
	ords := make([]int, 0, len(avail))
	for o := range avail {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	colsetKey := fmt.Sprint(ords)

	var buckets map[string][]int
	switch {
	case src.view != nil:
		// Shared across statements; the snapshot builds it under its own
		// lock so concurrent SELECTs can race the build safely.
		buckets = src.view.index(colsetKey, ords)
	case src.derivedStmt != nil:
		if st.derivedIdx == nil {
			st.derivedIdx = map[*SelectStmt]map[string]map[string][]int{}
		}
		byCols := st.derivedIdx[src.derivedStmt]
		if byCols == nil {
			byCols = map[string]map[string][]int{}
			st.derivedIdx[src.derivedStmt] = byCols
		}
		buckets = byCols[colsetKey]
		if buckets == nil {
			buckets = buildDerivedIndex(src.rows, ords)
			byCols[colsetKey] = buckets
		}
	default:
		buckets = buildDerivedIndex(src.rows, ords)
	}

	vals := make([]Value, len(ords))
	for i, ord := range ords {
		v, err := ctx.eval(avail[ord])
		if err != nil {
			return nil, false // fall back to scan; the error resurfaces there
		}
		if v.IsNull() {
			return []int{}, true
		}
		vals[i] = v
	}
	st.idxLookups++
	return buckets[encodeKey(vals)], true
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

// bestIndex returns the index of t covering the largest subset of the
// available equality columns, or nil; among equally large ones, the first
// by name. It runs once per probe of a correlated subquery, so it walks
// the table's precomputed index order and allocates nothing.
func bestIndex(t *Table, available []int) *index {
	var best *index
	for _, ix := range t.byName {
		if best != nil && len(ix.columns) <= len(best.columns) {
			continue
		}
		covered := true
		for _, c := range ix.columns {
			if !slices.Contains(available, c) {
				covered = false
				break
			}
		}
		if covered {
			best = ix
		}
	}
	return best
}

// evaluableNow reports whether e references only bindings that are already
// bound: earlier FROM items in this scope or anything in outer scopes.
// Unqualified column references and subqueries are conservatively rejected.
func evaluableNow(e Expr, boundBefore []*fromSource, outer *env) bool {
	boundNames := map[string]bool{}
	for _, s := range boundBefore {
		boundNames[s.binding.name] = true
	}
	for sc := outer; sc != nil; sc = sc.parent {
		for _, b := range sc.bindings {
			boundNames[b.name] = true
		}
	}
	ok := true
	var walk func(Expr)
	walk = func(e Expr) {
		if !ok || e == nil {
			return
		}
		switch x := e.(type) {
		case *Literal, *Param:
		case *ColumnRef:
			if x.Table == "" || !boundNames[strings.ToLower(x.Table)] {
				ok = false
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.Operand)
		case *IsNullExpr:
			walk(x.Operand)
		case *FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *CaseExpr:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(x.Else)
		default:
			// Subqueries and anything else: not evaluable for index probing.
			ok = false
		}
	}
	walk(e)
	return ok
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitAnd(be.Left), splitAnd(be.Right)...)
	}
	return []Expr{e}
}

// aggCtx evaluates expressions in a grouped context: aggregate function
// calls are computed over the group's snapshots, everything else is
// evaluated against the representative row.
type aggCtx struct {
	ctx       *evalCtx
	sources   []*fromSource
	snapshots [][][]Value
}

func (a *aggCtx) eval(e Expr) (Value, error) {
	switch x := e.(type) {
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			return a.evalAggregate(x)
		}
	case *BinaryExpr:
		if hasAggregate(x) {
			l, err := a.eval(x.Left)
			if err != nil {
				return Null, err
			}
			r, err := a.eval(x.Right)
			if err != nil {
				return Null, err
			}
			return a.ctx.evalBinary(&BinaryExpr{Op: x.Op, Left: &Literal{Value: l}, Right: &Literal{Value: r}})
		}
	case *UnaryExpr:
		if hasAggregate(x) {
			v, err := a.eval(x.Operand)
			if err != nil {
				return Null, err
			}
			return a.ctx.eval(&UnaryExpr{Op: x.Op, Operand: &Literal{Value: v}})
		}
	case *IsNullExpr:
		if hasAggregate(x) {
			v, err := a.eval(x.Operand)
			if err != nil {
				return Null, err
			}
			return a.ctx.eval(&IsNullExpr{Operand: &Literal{Value: v}, Negated: x.Negated})
		}
	case *InExpr:
		if hasAggregate(x.Operand) {
			v, err := a.eval(x.Operand)
			if err != nil {
				return Null, err
			}
			return a.ctx.eval(&InExpr{Operand: &Literal{Value: v}, List: x.List, Subquery: x.Subquery, Negated: x.Negated})
		}
	case *CaseExpr:
		if hasAggregate(x) {
			for _, w := range x.Whens {
				cond, err := a.eval(w.Cond)
				if err != nil {
					return Null, err
				}
				if b, known := cond.AsBool(); known && b {
					return a.eval(w.Then)
				}
			}
			if x.Else != nil {
				return a.eval(x.Else)
			}
			return Null, nil
		}
	}
	return a.ctx.eval(e)
}

func (a *aggCtx) evalAggregate(x *FuncExpr) (Value, error) {
	restore := make([][]Value, len(a.sources))
	for i, s := range a.sources {
		restore[i] = s.binding.row
	}
	defer func() {
		for i, s := range a.sources {
			s.binding.row = restore[i]
		}
	}()

	var count int64
	var sum float64
	allInt := true
	var minV, maxV Value
	haveVal := false
	var distinctSeen map[string]bool
	if x.Distinct {
		distinctSeen = map[string]bool{}
	}

	for _, snap := range a.snapshots {
		for i, s := range a.sources {
			s.binding.row = snap[i]
		}
		if x.Star {
			count++
			continue
		}
		if len(x.Args) != 1 {
			return Null, fmt.Errorf("sql: %s expects one argument", x.Name)
		}
		v, err := a.ctx.eval(x.Args[0])
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			k := encodeKey([]Value{v})
			if distinctSeen[k] {
				continue
			}
			distinctSeen[k] = true
		}
		count++
		if f, ok := v.AsFloat(); ok {
			sum += f
			if v.Kind() != KindInt {
				allInt = false
			}
		} else if x.Name == "SUM" || x.Name == "AVG" {
			return Null, fmt.Errorf("sql: %s of non-numeric value", x.Name)
		}
		if !haveVal {
			minV, maxV = v, v
			haveVal = true
		} else {
			if Compare(v, minV) < 0 {
				minV = v
			}
			if Compare(v, maxV) > 0 {
				maxV = v
			}
		}
	}

	switch x.Name {
	case "COUNT":
		return Int(count), nil
	case "SUM":
		if count == 0 {
			return Null, nil
		}
		if allInt {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "AVG":
		if count == 0 {
			return Null, nil
		}
		return Float(sum / float64(count)), nil
	case "MIN":
		if !haveVal {
			return Null, nil
		}
		return minV, nil
	case "MAX":
		if !haveVal {
			return Null, nil
		}
		return maxV, nil
	}
	return Null, fmt.Errorf("sql: unknown aggregate %s", x.Name)
}
