package shred

import (
	"fmt"
	"strings"
	"sync"

	"p3pdb/internal/p3p"
	"p3pdb/internal/p3p/basedata"
	"p3pdb/internal/reldb"
)

// GenericTable describes one table of the generic (Figure 8) schema: one
// table per element defined in the P3P policy vocabulary, whose columns are
// an id, the primary-key columns of the parent chain (the foreign key), and
// one column per attribute. The primary key is the id concatenated with
// the foreign key, exactly as the decomposition algorithm prescribes.
type GenericTable struct {
	element string   // XML element name, e.g. "individual-decision"
	parents []string // element names, immediate parent first
	attrs   []string // attribute names
	hasText bool     // element carries character data (CONSEQUENCE)
}

// Ident converts an XML element or attribute name into a SQL identifier.
func Ident(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "-", "_"))
}

// idCol returns the id column name for an element.
func idCol(element string) string { return Ident(element) + "_id" }

// genericRegistry enumerates the matching-relevant subset of the P3P
// vocabulary: the POLICY attributes plus the full STATEMENT subtree. The
// ENTITY/ACCESS/DISPUTES branches are not patterned over by any preference
// in the JRC suite the paper uses, and the Figure 8 algorithm assumes
// tree-unique element names, which DATA-GROUP under ENTITY would violate;
// see DESIGN.md "Known deviations".
func genericRegistry() []GenericTable {
	reg := []GenericTable{
		{element: "POLICY", attrs: []string{"name", "discuri", "opturi"}},
		{element: "STATEMENT", parents: []string{"POLICY"}},
		{element: "CONSEQUENCE", parents: []string{"STATEMENT", "POLICY"}, hasText: true},
		{element: "NON-IDENTIFIABLE", parents: []string{"STATEMENT", "POLICY"}},
		{element: "PURPOSE", parents: []string{"STATEMENT", "POLICY"}},
		{element: "RECIPIENT", parents: []string{"STATEMENT", "POLICY"}},
		{element: "RETENTION", parents: []string{"STATEMENT", "POLICY"}},
		{element: "DATA-GROUP", parents: []string{"STATEMENT", "POLICY"}, attrs: []string{"base"}},
		{element: "DATA", parents: []string{"DATA-GROUP", "STATEMENT", "POLICY"}, attrs: []string{"ref", "optional"}},
		{element: "CATEGORIES", parents: []string{"DATA", "DATA-GROUP", "STATEMENT", "POLICY"}},
	}
	for _, v := range p3p.Purposes {
		reg = append(reg, GenericTable{element: v, parents: []string{"PURPOSE", "STATEMENT", "POLICY"}, attrs: []string{"required"}})
	}
	for _, v := range p3p.Recipients {
		reg = append(reg, GenericTable{element: v, parents: []string{"RECIPIENT", "STATEMENT", "POLICY"}, attrs: []string{"required"}})
	}
	for _, v := range p3p.Retentions {
		reg = append(reg, GenericTable{element: v, parents: []string{"RETENTION", "STATEMENT", "POLICY"}})
	}
	for _, v := range p3p.Categories {
		reg = append(reg, GenericTable{element: v, parents: []string{"CATEGORIES", "DATA", "DATA-GROUP", "STATEMENT", "POLICY"}})
	}
	return reg
}

// GenericStore shreds policies into the generic one-table-per-element
// schema produced by the Figure 8 decomposition algorithm.
type GenericStore struct {
	db     *reldb.DB
	schema *basedata.Schema
	tables map[string]GenericTable // by element name
	nextID int
}

// GenericRegistry exposes the table registry (element name, parent chain,
// attributes) for the translators that target the generic schema.
func GenericRegistry() map[string]GenericTable {
	out := map[string]GenericTable{}
	for _, t := range genericRegistry() {
		out[t.element] = t
	}
	return out
}

// Element returns the XML element name of the table.
func (t GenericTable) Element() string { return t.element }

// Parents returns the parent chain (immediate parent first).
func (t GenericTable) Parents() []string { return t.parents }

// Attrs returns the attribute column names.
func (t GenericTable) Attrs() []string { return t.attrs }

// TableName returns the SQL table name for an element of the generic
// schema.
func (t GenericTable) TableName() string { return Ident(t.element) }

// IDColumn returns the table's id column name.
func (t GenericTable) IDColumn() string { return idCol(t.element) }

// FKColumns returns the foreign-key column names (immediate parent first).
func (t GenericTable) FKColumns() []string {
	out := make([]string, len(t.parents))
	for i, p := range t.parents {
		out[i] = idCol(p)
	}
	return out
}

// genericDDL is the generic schema's DDL, parsed once: every store
// creates the same tables, and a site builds one store per policy.
var genericDDL = sync.OnceValues(func() ([]reldb.Statement, error) {
	var ddl []string
	for _, t := range genericRegistry() {
		var cols []string
		cols = append(cols, t.IDColumn()+" INTEGER NOT NULL")
		for _, fk := range t.FKColumns() {
			cols = append(cols, fk+" INTEGER NOT NULL")
		}
		for _, a := range t.attrs {
			cols = append(cols, Ident(a)+" VARCHAR(255)")
		}
		if t.hasText {
			cols = append(cols, "text_value VARCHAR(4096)")
		}
		pk := append([]string{t.IDColumn()}, t.FKColumns()...)
		ddl = append(ddl, fmt.Sprintf("CREATE TABLE %s (%s, PRIMARY KEY (%s))",
			t.TableName(), strings.Join(cols, ", "), strings.Join(pk, ", ")))
		if len(t.parents) > 0 {
			ddl = append(ddl, fmt.Sprintf("CREATE INDEX ix_%s_fk ON %s (%s)",
				t.TableName(), t.TableName(), strings.Join(t.FKColumns(), ", ")))
		}
	}
	return reldb.ParseAll(ddl)
})

// NewGeneric creates the generic-schema tables in db and returns a store.
func NewGeneric(db *reldb.DB) (*GenericStore, error) {
	g := &GenericStore{db: db, schema: basedata.Default(), tables: map[string]GenericTable{}, nextID: 1}
	for _, t := range genericRegistry() {
		g.tables[t.element] = t
	}
	ddl, err := genericDDL()
	if err != nil {
		return nil, fmt.Errorf("shred: creating generic schema: %w", err)
	}
	for _, stmt := range ddl {
		if _, err := db.ExecStmt(stmt); err != nil {
			return nil, fmt.Errorf("shred: creating generic schema: %w", err)
		}
	}
	return g, nil
}

// DB exposes the underlying database.
func (g *GenericStore) DB() *reldb.DB { return g.db }

// InstallPolicy augments and shreds one policy into the generic schema,
// returning its policy id. This is the Figure 10 population algorithm
// specialized to the P3P vocabulary: ids are assigned per parent scope and
// the foreign key of each row is the concatenated primary key of its
// parent's row.
func (g *GenericStore) InstallPolicy(pol *p3p.Policy) (int, error) {
	return g.InstallPolicyAt(pol, g.nextID)
}

// InstallPolicyAt is InstallPolicy with the policy id chosen by the
// caller, used by snapshot rebuilds to preserve ids across state swaps
// (see OptimizedStore.InstallPolicyAt). The id must be unused; the
// store's auto-assign sequence continues past it.
func (g *GenericStore) InstallPolicyAt(pol *p3p.Policy, policyID int) (int, error) {
	frag, err := BuildGenericFragment(g.schema, pol, policyID)
	if err != nil {
		return 0, err
	}
	return g.InstallFragment(frag)
}

// InstallFragment bulk-appends a prebuilt generic-schema fragment (see
// OptimizedStore.InstallFragment).
func (g *GenericStore) InstallFragment(frag *Fragment) (int, error) {
	if frag.id >= g.nextID {
		g.nextID = frag.id + 1
	}
	if err := frag.installInto(g.db); err != nil {
		return 0, err
	}
	return frag.id, nil
}

// RemovePolicy deletes every row belonging to a policy from all element
// tables.
func (g *GenericStore) RemovePolicy(policyID int) error {
	for _, t := range g.tables {
		if _, err := g.db.Exec(
			fmt.Sprintf(`DELETE FROM %s WHERE policy_id = ?`, t.TableName()),
			reldb.Int(int64(policyID))); err != nil {
			return err
		}
	}
	return nil
}

// PolicyID looks up the id assigned to a named policy in the generic
// schema.
func (g *GenericStore) PolicyID(name string) (int, error) {
	rows, err := g.db.Query(`SELECT policy_id FROM policy WHERE policy.name = ?`, reldb.Str(name))
	if err != nil {
		return 0, err
	}
	if len(rows.Data) == 0 {
		return 0, fmt.Errorf("shred: policy %q not installed", name)
	}
	n, _ := rows.Data[0][0].AsInt()
	return int(n), nil
}
