// Package shred stores P3P policies in relational tables: the paper's
// Section 5. It implements both the pedagogical generic schema produced by
// the Figure 8 decomposition algorithm (one table per element, used by the
// XTABLE translation path) and the hand-optimized schema of Figure 14
// (value subelements folded into columns of their parent's table), plus the
// data-population algorithm of Figure 10.
//
// Shredding performs category augmentation once, at install time: every
// DATA element is expanded to the leaf data elements it covers, each with
// the categories the base data schema assigns. The matching queries then
// never pay for augmentation — the asymmetry the paper's §6.3.2 profiling
// highlights.
package shred

import (
	"fmt"
	"strings"
	"sync"

	"p3pdb/internal/p3p"
	"p3pdb/internal/p3p/basedata"
	"p3pdb/internal/reldb"
)

// optimizedDDL creates the Figure 14 schema. Purpose and Recipient carry
// their value subelements as rows (purpose/recipient + required columns);
// RETENTION and CONSEQUENCE are folded into Statement; categories are
// folded into the Data table (one row per data leaf and category, with an
// empty-string category for augmented leaves that resolve to none).
var optimizedDDL = []string{
	`CREATE TABLE Policy (
		policy_id INTEGER NOT NULL,
		name VARCHAR(128) NOT NULL,
		discuri VARCHAR(255),
		opturi VARCHAR(255),
		entity_name VARCHAR(255),
		access VARCHAR(32),
		test INTEGER NOT NULL,
		PRIMARY KEY (policy_id))`,
	`CREATE UNIQUE INDEX ix_policy_name ON Policy (name)`,
	`CREATE TABLE Statement (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		consequence VARCHAR(4096),
		retention VARCHAR(32),
		non_identifiable INTEGER NOT NULL,
		PRIMARY KEY (policy_id, statement_id))`,
	`CREATE INDEX ix_statement_policy ON Statement (policy_id)`,
	`CREATE TABLE Purpose (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		purpose VARCHAR(32) NOT NULL,
		required VARCHAR(16) NOT NULL,
		PRIMARY KEY (policy_id, statement_id, purpose))`,
	`CREATE INDEX ix_purpose_stmt ON Purpose (policy_id, statement_id)`,
	`CREATE INDEX ix_purpose_policy ON Purpose (policy_id)`,
	`CREATE TABLE Recipient (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		recipient VARCHAR(32) NOT NULL,
		required VARCHAR(16) NOT NULL,
		PRIMARY KEY (policy_id, statement_id, recipient))`,
	`CREATE INDEX ix_recipient_stmt ON Recipient (policy_id, statement_id)`,
	`CREATE INDEX ix_recipient_policy ON Recipient (policy_id)`,
	`CREATE TABLE Datagroup (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		datagroup_id INTEGER NOT NULL,
		base VARCHAR(255),
		PRIMARY KEY (policy_id, statement_id, datagroup_id))`,
	`CREATE INDEX ix_datagroup_stmt ON Datagroup (policy_id, statement_id)`,
	`CREATE TABLE Data (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		datagroup_id INTEGER NOT NULL,
		data_id INTEGER NOT NULL,
		ref VARCHAR(255) NOT NULL,
		orig_ref VARCHAR(255) NOT NULL,
		optional INTEGER NOT NULL,
		category VARCHAR(32) NOT NULL,
		PRIMARY KEY (policy_id, statement_id, datagroup_id, data_id, category))`,
	`CREATE INDEX ix_data_group ON Data (policy_id, statement_id, datagroup_id)`,
	`CREATE INDEX ix_data_elem ON Data (policy_id, statement_id, datagroup_id, data_id)`,
	`CREATE INDEX ix_data_policy ON Data (policy_id)`,
}

// OptimizedStore shreds policies into the optimized (Figure 14) schema.
type OptimizedStore struct {
	db     *reldb.DB
	schema *basedata.Schema
	nextID int
}

// optimizedStmts is optimizedDDL parsed once: a site creates the tables
// in a new database on every snapshot publish.
var optimizedStmts = sync.OnceValues(func() ([]reldb.Statement, error) {
	return reldb.ParseAll(optimizedDDL)
})

// NewOptimized creates the optimized tables in db (which must not already
// contain them) and returns a store.
func NewOptimized(db *reldb.DB) (*OptimizedStore, error) {
	ddl, err := optimizedStmts()
	if err != nil {
		return nil, fmt.Errorf("shred: creating optimized schema: %w", err)
	}
	for _, stmt := range ddl {
		if _, err := db.ExecStmt(stmt); err != nil {
			return nil, fmt.Errorf("shred: creating optimized schema: %w", err)
		}
	}
	return &OptimizedStore{db: db, schema: basedata.Default(), nextID: 1}, nil
}

// DB exposes the underlying database (for translated queries and dumps).
func (s *OptimizedStore) DB() *reldb.DB { return s.db }

// InstallPolicy validates, augments, and shreds one policy, returning its
// assigned policy id.
func (s *OptimizedStore) InstallPolicy(pol *p3p.Policy) (int, error) {
	return s.InstallPolicyAt(pol, s.nextID)
}

// InstallPolicyAt is InstallPolicy with the policy id chosen by the
// caller. Snapshot rebuilds (core's copy-on-write state swap) use it to
// give each policy the same id it held in the previous snapshot, so that
// id-bound artifacts — cached XTABLE translations, in-flight compiled
// preferences — stay valid across swaps. The id must be unused; the
// store's auto-assign sequence continues past it.
func (s *OptimizedStore) InstallPolicyAt(pol *p3p.Policy, id int) (int, error) {
	frag, err := BuildOptimizedFragment(s.schema, pol, id)
	if err != nil {
		return 0, err
	}
	return s.InstallFragment(frag)
}

// InstallFragment bulk-appends a prebuilt shred fragment. Snapshot
// rebuilds pass fragments cached from the previous snapshot, turning the
// per-rebuild shred cost into a validated bulk append.
func (s *OptimizedStore) InstallFragment(frag *Fragment) (int, error) {
	if prev, err := s.PolicyID(frag.name); err == nil {
		return 0, fmt.Errorf("shred: policy %q already installed as id %d", frag.name, prev)
	}
	if frag.id >= s.nextID {
		s.nextID = frag.id + 1
	}
	if err := frag.installInto(s.db); err != nil {
		return 0, err
	}
	return frag.id, nil
}

// policyIDStmt is the parsed PolicyID lookup, shared across stores:
// statements are immutable ASTs, and parsing per lookup would dominate
// the bulk-install fast path.
var policyIDStmt = sync.OnceValue(func() reldb.Statement {
	stmt, err := reldb.Parse(`SELECT policy_id FROM Policy WHERE Policy.name = ?`)
	if err != nil {
		panic(err)
	}
	return stmt
})

// PolicyID looks up the id assigned to a named policy.
func (s *OptimizedStore) PolicyID(name string) (int, error) {
	rows, err := s.db.QueryStmt(policyIDStmt(), reldb.Str(name))
	if err != nil {
		return 0, err
	}
	if len(rows.Data) == 0 {
		return 0, fmt.Errorf("shred: policy %q not installed", name)
	}
	n, _ := rows.Data[0][0].AsInt()
	return int(n), nil
}

// RemovePolicy deletes every row belonging to a policy, enabling policy
// versioning (install new version, remove old).
func (s *OptimizedStore) RemovePolicy(policyID int) error {
	for _, table := range []string{"Data", "Datagroup", "Recipient", "Purpose", "Statement", "Policy"} {
		if _, err := s.db.Exec(
			fmt.Sprintf(`DELETE FROM %s WHERE policy_id = ?`, table),
			reldb.Int(int64(policyID))); err != nil {
			return err
		}
	}
	return nil
}

// ExpandedLeaf is one augmented data leaf produced from a DATA element.
type ExpandedLeaf struct {
	Ref        string // leaf reference including leading '#'
	Categories []string
}

// ExpandData performs the augmentation of one DATA element: leaf expansion
// over the base data schema plus category resolution. Unknown references
// stay as a single leaf with their declared categories.
func ExpandData(schema *basedata.Schema, d *p3p.Data) []ExpandedLeaf {
	leaves := schema.Leaves(d.Ref)
	if len(leaves) == 0 {
		return []ExpandedLeaf{{
			Ref:        normalizeHash(d.Ref),
			Categories: schema.CategoriesFor(d.Ref, d.Categories),
		}}
	}
	out := make([]ExpandedLeaf, len(leaves))
	for i, leaf := range leaves {
		out[i] = ExpandedLeaf{
			Ref:        "#" + leaf.Ref,
			Categories: schema.CategoriesFor(leaf.Ref, d.Categories),
		}
	}
	return out
}

func normalizeHash(ref string) string {
	if strings.HasPrefix(ref, "#") {
		return ref
	}
	return "#" + ref
}

func nullable(s string) reldb.Value {
	if s == "" {
		return reldb.Null
	}
	return reldb.Str(s)
}

func boolInt(b bool) reldb.Value {
	if b {
		return reldb.Int(1)
	}
	return reldb.Int(0)
}
