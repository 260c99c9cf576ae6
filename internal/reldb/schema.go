package reldb

import (
	"fmt"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name     string
	Type     Kind
	Nullable bool
}

// TableSchema describes a table: its columns, primary key, and secondary
// indexes. Column and table name lookups are case-insensitive, mirroring
// SQL identifier semantics.
type TableSchema struct {
	Name       string
	Columns    []Column
	PrimaryKey []string // column names; empty means no primary key

	byName map[string]int // lowercase column name -> ordinal
	lower  []string       // lowercase column names, in ordinal order
}

// NewTableSchema builds a schema and validates it: column names must be
// unique (case-insensitively) and the primary key must reference existing
// columns.
func NewTableSchema(name string, cols []Column, primaryKey []string) (*TableSchema, error) {
	if name == "" {
		return nil, fmt.Errorf("reldb: table name must not be empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("reldb: table %s: at least one column required", name)
	}
	s := &TableSchema{Name: name, Columns: cols, PrimaryKey: primaryKey, byName: map[string]int{}, lower: make([]string, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		s.lower[i] = key
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("reldb: table %s: duplicate column %s", name, c.Name)
		}
		s.byName[key] = i
	}
	for _, pk := range primaryKey {
		if _, ok := s.byName[strings.ToLower(pk)]; !ok {
			return nil, fmt.Errorf("reldb: table %s: primary key column %s not defined", name, pk)
		}
	}
	return s, nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// ordinals maps column names to ordinals, erroring on unknown names.
func (s *TableSchema) ordinals(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		ord := s.ColumnIndex(n)
		if ord < 0 {
			return nil, fmt.Errorf("reldb: table %s has no column %s", s.Name, n)
		}
		out[i] = ord
	}
	return out, nil
}
