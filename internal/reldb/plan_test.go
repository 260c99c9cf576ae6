package reldb

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestBindErrors pins that naming errors are bind errors: they surface
// whatever the tables hold — over empty tables, when no row qualifies,
// and behind a disjunct that is never reached — and before any row is
// read. Each statement runs over an empty and a populated table.
func TestBindErrors(t *testing.T) {
	for _, c := range []struct {
		sql    string
		params []Value
		want   string
	}{
		{`SELECT nosuch FROM t WHERE zz.q = 1`, nil, "sql: unknown table or alias zz"},
		{`SELECT nosuch FROM t`, nil, "sql: column nosuch does not exist"},
		{`SELECT nosuch FROM t WHERE a = 2`, nil, "sql: column nosuch does not exist"},
		{`SELECT a FROM t WHERE a = 1 OR nosuch = 3`, nil, "sql: column nosuch does not exist"},
		{`SELECT t.nosuch FROM t`, nil, "sql: column t.nosuch does not exist"},
		{`SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.zz)`, nil, "sql: column t.zz does not exist"},
		{`SELECT a FROM t, u`, nil, "sql: column a is ambiguous"},
		{`SELECT * FROM t x, u X`, nil, "sql: duplicate table alias x"},
		{`SELECT * FROM nosuch`, nil, "sql: table nosuch does not exist"},
		{`SELECT * FROM (SELECT * FROM nosuch) AS v`, nil, "sql: table nosuch does not exist"},
		{`SELECT a FROM t ORDER BY nosuch`, nil, "sql: column nosuch does not exist"},
		{`SELECT a FROM t GROUP BY a HAVING MAX(nosuch) > 1`, nil, "sql: column nosuch does not exist"},
		{`SELECT * FROM t WHERE a = ? AND b = ?`, []Value{Int(1)}, "sql: parameter 2 not bound (have 1)"},
		{`UPDATE t SET b = nosuch WHERE a = 1`, nil, "sql: column nosuch does not exist"},
		{`DELETE FROM t WHERE zz.a = 1`, nil, "sql: unknown table or alias zz"},
		{`INSERT INTO t VALUES (a, 2)`, nil, "sql: column a does not exist"},
	} {
		for _, populated := range []bool{false, true} {
			db := New()
			db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER)`)
			db.MustExec(`CREATE TABLE u (a INTEGER)`)
			if populated {
				db.MustExec(`INSERT INTO t VALUES (1, 1), (5, 5)`)
				db.MustExec(`INSERT INTO u VALUES (1)`)
			}
			db.ResetStats()
			_, err := db.Exec(c.sql, c.params...)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (populated=%v): error %v, want %q", c.sql, populated, err, c.want)
			}
			if st := db.Stats(); st.RowsScanned != 0 || st.IndexLookups != 0 {
				t.Errorf("%s (populated=%v): read rows before failing: %+v", c.sql, populated, st)
			}
		}
	}
}

// TestPlanFollowsCatalog runs one prepared statement against databases
// of the same and of a different shape: the cached plan serves every
// database with the catalog it was bound to, and a database whose
// catalog differs — other column order, another index — binds afresh
// instead of reading the wrong ordinals.
func TestPlanFollowsCatalog(t *testing.T) {
	stmt, err := Parse(`SELECT b FROM t WHERE t.a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	open := func(ddl ...string) *DB {
		db := New()
		for _, s := range ddl {
			db.MustExec(s)
		}
		return db
	}
	one := open(`CREATE TABLE t (a INTEGER, b VARCHAR)`, `INSERT INTO t VALUES (1, 'one')`)
	same := open(`CREATE TABLE T (A INTEGER, B VARCHAR)`, `INSERT INTO t VALUES (1, 'same')`)
	swapped := open(`CREATE TABLE t (b VARCHAR, a INTEGER)`, `INSERT INTO t VALUES ('swapped', 1)`)
	indexed := open(`CREATE TABLE t (a INTEGER, b VARCHAR)`, `CREATE INDEX ta ON t (a)`, `INSERT INTO t VALUES (1, 'indexed')`)

	run := func(db *DB, want string) *plan {
		t.Helper()
		rows, err := db.QueryStmt(sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].AsString() != want {
			t.Fatalf("got %v, want %q", rows.Data, want)
		}
		return sel.plan.Load()
	}
	first := run(one, "one")
	if run(same, "same") != first {
		t.Error("a database of the same shape did not reuse the plan")
	}
	if run(swapped, "swapped") == first {
		t.Error("a database with another column order reused the plan")
	}
	if p := run(indexed, "indexed"); p.sources[0].index < 0 {
		t.Error("the plan bound to the indexed database does not probe")
	}
	if st := indexed.Stats(); st.IndexLookups != 1 || st.RowsScanned != 0 {
		t.Errorf("indexed database: %+v, want one probe and no scan", st)
	}
	// DDL on a database the statement already ran against re-binds too.
	one.MustExec(`CREATE INDEX ta ON t (a)`)
	one.ResetStats()
	run(one, "one")
	if st := one.Stats(); st.IndexLookups != 1 {
		t.Errorf("after CREATE INDEX: %+v, want a probe", st)
	}
}

// TestProbeKeys checks which equality conjuncts key an index probe — the
// other side may be any expression over constants, parameters, earlier
// sources and enclosing blocks, but not a subquery, an unqualified
// column or the source itself — and that a probe, whose conjuncts the
// filter then skips, returns what scanning and filtering returns.
func TestProbeKeys(t *testing.T) {
	open := func(opts Options) *DB {
		db := NewWithOptions(opts)
		db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER)`)
		db.MustExec(`CREATE TABLE u (a INTEGER, b INTEGER)`)
		db.MustExec(`CREATE INDEX ta ON t (a)`)
		for i := 0; i < 12; i++ {
			db.MustExec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i%6)), Int(int64(i)))
			db.MustExec(`INSERT INTO u VALUES (?, ?)`, Int(int64(i)), Int(int64(i%4-1)))
		}
		db.MustExec(`INSERT INTO u VALUES (NULL, NULL)`)
		return db
	}
	indexed, scanned := open(Options{}), open(Options{DisableIndexes: true})
	for _, c := range []struct {
		sql   string
		probe bool
	}{
		{`SELECT t.b FROM u, t WHERE t.a = u.b + 1 ORDER BY t.b, u.a`, true},
		{`SELECT t.b FROM u, t WHERE -u.b = t.a ORDER BY t.b, u.a`, true},
		{`SELECT t.b FROM u, t WHERE t.a = ABS(u.b) AND t.b > u.a ORDER BY t.b, u.a`, true},
		{`SELECT t.b FROM u, t WHERE t.a = CASE WHEN u.b IS NULL THEN 0 ELSE u.b END ORDER BY t.b, u.a`, true},
		{`SELECT t.b FROM u, t WHERE t.a = ? AND NOT (u.a <> t.b) ORDER BY t.b`, true},
		{`SELECT u.a FROM u WHERE EXISTS (SELECT * FROM t WHERE t.a = u.b AND t.a = u.a) ORDER BY u.a`, true},
		{`SELECT t.b FROM t, u WHERE t.a = u.b ORDER BY t.b, u.a`, false}, // u is bound after t
		{`SELECT t.b FROM t WHERE a = 2 ORDER BY t.b`, false},             // unqualified
		{`SELECT t.b FROM t WHERE t.a = (SELECT MIN(u.a) FROM u) ORDER BY t.b`, false},
		{`SELECT t.b FROM t WHERE t.a IN (1, 2) ORDER BY t.b`, false},
		{`SELECT t.b FROM t WHERE t.a = t.b ORDER BY t.b`, false},
	} {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := indexed.Explain(stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := strings.Contains(plan, "t: index ta (a) on t"); got != c.probe {
			t.Errorf("%s: probe = %v, want %v\n%s", c.sql, got, c.probe, plan)
		}
		want, err := scanned.QueryStmt(stmt, Int(3))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got, err := indexed.QueryStmt(stmt, Int(3))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probing returned %v, scanning %v", c.sql, got.Data, want.Data)
		}
	}
}

// TestSharedStatementConcurrentBind runs one prepared statement — never
// executed before, so unbound — from several goroutines at once against
// a frozen database, and then against a second database of the same
// shape: the racing first executions each bind or reuse, every execution
// reads the shared plan, and all return the same rows. Run under -race
// this is the plan cache's half of the lock-free read path.
func TestSharedStatementConcurrentBind(t *testing.T) {
	stmt, err := Parse(`SELECT s.statement_id FROM Statement s WHERE s.policy_id = ? AND EXISTS
		(SELECT * FROM Purpose p WHERE p.policy_id = s.policy_id AND p.statement_id = s.statement_id AND p.required = 'opt-in')`)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		db := fixture(t, Options{})
		db.Freeze()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					rows, err := db.QueryStmt(stmt, Int(1))
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
					if len(rows.Data) != 1 || rows.Data[0][0] != Int(2) {
						t.Errorf("round %d: rows = %v, want [[2]]", round, rows.Data)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
