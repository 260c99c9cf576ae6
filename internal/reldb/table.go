package reldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// index is a hash index over one or more columns of a table. It maps the
// encoded key of the indexed column values to the row ids holding that key.
type index struct {
	name    string
	columns []int // ordinals into the table schema
	unique  bool
	buckets map[string][]int
}

func (ix *index) keyForRow(row []Value) string {
	var scratch [64]byte
	b := scratch[:0]
	for _, c := range ix.columns {
		b = appendKeyValue(b, row[c])
	}
	return string(b)
}

// Table is a heap of rows plus any number of hash indexes. Deleted rows are
// tombstoned (nil) and skipped during scans; row ids are stable.
type Table struct {
	schema *TableSchema
	// key is the lowercase table name: the table's key in DB.tables and
	// in the view cache.
	key     string
	rows    [][]Value
	live    int
	indexes map[string]*index // by lowercase index name
	// byName lists the indexes in the order of those names: the fixed
	// order in which the executor considers them for a probe. It is kept
	// up to date as indexes are added, so choosing an access path sorts
	// nothing.
	byName []*index
	// version increments on every mutation; caches over the table's
	// contents (materialized views) key on it.
	version int64
	// keyScratch holds each index's encoded key for the row being
	// inserted, reused across inserts so the bulk-load path encodes
	// every key exactly once. Writers already serialize on db.mu.
	keyScratch []indexKey
}

// indexKey pairs an index with the encoded key of the in-flight row.
type indexKey struct {
	ix  *index
	key string
}

func newTable(schema *TableSchema) *Table {
	t := &Table{schema: schema, key: strings.ToLower(schema.Name), indexes: map[string]*index{}}
	if len(schema.PrimaryKey) > 0 {
		ords, err := schema.ordinals(schema.PrimaryKey)
		if err != nil {
			// NewTableSchema validated this already.
			panic(err)
		}
		pk := &index{name: "__pk", columns: ords, unique: true, buckets: map[string][]int{}}
		t.indexes[pk.name] = pk
		t.byName = []*index{pk}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *TableSchema { return t.schema }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int { return t.live }

// coerce converts v to the column's declared type where a lossless
// conversion exists, otherwise returns an error. NULL passes through if the
// column is nullable.
func coerce(col Column, v Value) (Value, error) {
	if v.IsNull() {
		if !col.Nullable {
			return Null, fmt.Errorf("reldb: column %s is NOT NULL", col.Name)
		}
		return v, nil
	}
	switch col.Type {
	case KindInt:
		if n, ok := v.AsInt(); ok {
			return Int(n), nil
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
	case KindString:
		return Str(v.AsString()), nil
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return Bool(b), nil
		}
	}
	return Null, fmt.Errorf("reldb: cannot store %s into %s column %s", v.Kind(), col.Type, col.Name)
}

// insert validates, coerces, and appends a row, maintaining all indexes.
func (t *Table) insert(row []Value) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("reldb: table %s: got %d values, want %d", t.schema.Name, len(row), len(t.schema.Columns))
	}
	stored := make([]Value, len(row))
	for i, v := range row {
		cv, err := coerce(t.schema.Columns[i], v)
		if err != nil {
			return fmt.Errorf("%w (table %s)", err, t.schema.Name)
		}
		stored[i] = cv
	}
	for _, ix := range t.indexes {
		if !ix.unique {
			continue
		}
		key := ix.keyForRow(stored)
		if ids := ix.buckets[key]; len(ids) > 0 {
			return fmt.Errorf("reldb: table %s: duplicate key for index %s", t.schema.Name, ix.name)
		}
	}
	id := len(t.rows)
	t.rows = append(t.rows, stored)
	t.live++
	t.version++
	for _, ix := range t.indexes {
		key := ix.keyForRow(stored)
		ix.buckets[key] = append(ix.buckets[key], id)
	}
	return nil
}

// insertShared appends a row without copying or coercing it, the bulk-
// load path for immutable pre-typed rows (shred fragments). Every value
// must already carry its column's exact kind; a row with any lossless
// mismatch falls back to the copying insert. The caller must never
// mutate the slice afterwards — the table aliases it (tombstoning and
// updates replace whole rows, never edit them in place, so aliasing is
// safe).
func (t *Table) insertShared(row []Value) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("reldb: table %s: got %d values, want %d", t.schema.Name, len(row), len(t.schema.Columns))
	}
	for i, v := range row {
		col := t.schema.Columns[i]
		if v.IsNull() {
			if !col.Nullable {
				return fmt.Errorf("reldb: column %s is NOT NULL (table %s)", col.Name, t.schema.Name)
			}
			continue
		}
		if v.Kind() != col.Type {
			return t.insert(row)
		}
	}
	t.keyScratch = t.keyScratch[:0]
	for _, ix := range t.indexes {
		key := ix.keyForRow(row)
		if ix.unique && len(ix.buckets[key]) > 0 {
			return fmt.Errorf("reldb: table %s: duplicate key for index %s", t.schema.Name, ix.name)
		}
		t.keyScratch = append(t.keyScratch, indexKey{ix, key})
	}
	id := len(t.rows)
	t.rows = append(t.rows, row)
	t.live++
	t.version++
	for _, ik := range t.keyScratch {
		ik.ix.buckets[ik.key] = append(ik.ix.buckets[ik.key], id)
	}
	return nil
}

// delete tombstones the row with the given id.
func (t *Table) delete(id int) {
	row := t.rows[id]
	if row == nil {
		return
	}
	for _, ix := range t.indexes {
		key := ix.keyForRow(row)
		ids := ix.buckets[key]
		for i, rid := range ids {
			if rid == id {
				ix.buckets[key] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ix.buckets[key]) == 0 {
			delete(ix.buckets, key)
		}
	}
	t.rows[id] = nil
	t.live--
	t.version++
}

// update replaces the row with the given id, maintaining indexes and
// re-checking uniqueness.
func (t *Table) update(id int, row []Value) error {
	old := t.rows[id]
	if old == nil {
		return fmt.Errorf("reldb: update of deleted row %d", id)
	}
	stored := make([]Value, len(row))
	for i, v := range row {
		cv, err := coerce(t.schema.Columns[i], v)
		if err != nil {
			return err
		}
		stored[i] = cv
	}
	for _, ix := range t.indexes {
		if !ix.unique {
			continue
		}
		newKey := ix.keyForRow(stored)
		if newKey == ix.keyForRow(old) {
			continue
		}
		if len(ix.buckets[newKey]) > 0 {
			return fmt.Errorf("reldb: table %s: duplicate key for index %s", t.schema.Name, ix.name)
		}
	}
	t.delete(id)
	// delete decremented live and tombstoned; re-insert at same id.
	t.rows[id] = stored
	t.live++
	for _, ix := range t.indexes {
		key := ix.keyForRow(stored)
		ix.buckets[key] = append(ix.buckets[key], id)
	}
	return nil
}

// addIndex builds a named hash index over the given columns.
func (t *Table) addIndex(name string, columns []string, unique bool) error {
	key := strings.ToLower(name)
	if _, dup := t.indexes[key]; dup {
		return fmt.Errorf("reldb: index %s already exists on table %s", name, t.schema.Name)
	}
	ords, err := t.schema.ordinals(columns)
	if err != nil {
		return err
	}
	ix := &index{name: name, columns: ords, unique: unique, buckets: map[string][]int{}}
	for id, row := range t.rows {
		if row == nil {
			continue
		}
		k := ix.keyForRow(row)
		if unique && len(ix.buckets[k]) > 0 {
			return fmt.Errorf("reldb: cannot create unique index %s: duplicate key", name)
		}
		ix.buckets[k] = append(ix.buckets[k], id)
	}
	t.indexes[key] = ix
	at := sort.Search(len(t.byName), func(i int) bool { return strings.ToLower(t.byName[i].name) > key })
	t.byName = slices.Insert(t.byName, at, ix)
	return nil
}

// lookup returns the ids of rows whose indexed columns equal the given
// values, using index ix. The values must be ordered to match ix.columns.
func (t *Table) lookup(ix *index, vals []Value) []int {
	return ix.buckets[encodeKey(vals)]
}

// scan calls fn for every live row until fn returns false.
func (t *Table) scan(fn func(id int, row []Value) bool) {
	for id, row := range t.rows {
		if row == nil {
			continue
		}
		if !fn(id, row) {
			return
		}
	}
}
