package reldb

import (
	"errors"
	"strings"
	"testing"
)

func TestCountDistinct(t *testing.T) {
	db := fixture(t, Options{})
	got := queryStrings(t, db, `SELECT COUNT(DISTINCT required), COUNT(required) FROM Purpose`)
	if flat(got) != "2,5" {
		t.Errorf("got %q", flat(got))
	}
	got = queryStrings(t, db, `SELECT policy_id, COUNT(DISTINCT required) FROM Purpose GROUP BY policy_id ORDER BY policy_id`)
	if flat(got) != "1,2;2,1" {
		t.Errorf("got %q", flat(got))
	}
}

func TestViewCacheSeesWrites(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER NOT NULL, PRIMARY KEY (a))`)
	for i := 0; i < 10; i++ {
		db.MustExec(`INSERT INTO t VALUES (?)`, Int(int64(i)))
	}
	view := `SELECT COUNT(*) FROM (SELECT * FROM t) AS v`
	got := queryStrings(t, db, view)
	if flat(got) != "10" {
		t.Fatalf("initial view count %q", flat(got))
	}
	// A write invalidates the cached materialization.
	db.MustExec(`INSERT INTO t VALUES (10)`)
	if got := queryStrings(t, db, view); flat(got) != "11" {
		t.Errorf("after insert: %q", flat(got))
	}
	db.MustExec(`DELETE FROM t WHERE a < 5`)
	if got := queryStrings(t, db, view); flat(got) != "6" {
		t.Errorf("after delete: %q", flat(got))
	}
	db.MustExec(`UPDATE t SET a = a + 100 WHERE a = 5`)
	if got := queryStrings(t, db, `SELECT COUNT(*) FROM (SELECT * FROM t) AS v WHERE v.a = 105`); flat(got) != "1" {
		t.Errorf("after update: %q", flat(got))
	}
}

func TestViewHashJoinAgreesWithScan(t *testing.T) {
	// The derived-table hash join must agree with plain scans on a join
	// through a view, including rows that match nothing.
	mk := func(opts Options) *DB {
		db := NewWithOptions(opts)
		db.MustExec(`CREATE TABLE a (id INTEGER NOT NULL, PRIMARY KEY (id))`)
		db.MustExec(`CREATE TABLE b (a_id INTEGER NOT NULL, v VARCHAR(8))`)
		for i := 0; i < 20; i++ {
			db.MustExec(`INSERT INTO a VALUES (?)`, Int(int64(i)))
			if i%2 == 0 {
				db.MustExec(`INSERT INTO b (a_id, v) VALUES (?, 'x')`, Int(int64(i)))
			}
		}
		return db
	}
	q := `SELECT COUNT(*) FROM a WHERE EXISTS (SELECT * FROM (SELECT * FROM b) AS vb WHERE vb.a_id = a.id)`
	fast := mk(Options{})
	slow := mk(Options{DisableIndexes: true, DisableViewCache: true})
	g1 := queryStrings(t, fast, q)
	g2 := queryStrings(t, slow, q)
	if flat(g1) != flat(g2) || flat(g1) != "10" {
		t.Errorf("fast=%q slow=%q want 10", flat(g1), flat(g2))
	}
}

func TestPrepareAndQueryExistsStmt(t *testing.T) {
	db := fixture(t, Options{})
	stmt, err := db.Prepare(`SELECT * FROM Purpose WHERE Purpose.purpose = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := db.QueryExistsStmt(stmt, Str("current"))
	if err != nil || !ok {
		t.Errorf("exists current: %v %v", ok, err)
	}
	ok, err = db.QueryExistsStmt(stmt, Str("nope"))
	if err != nil || ok {
		t.Errorf("exists nope: %v %v", ok, err)
	}
	// Prepare enforces the complexity limits.
	deep := "SELECT * FROM Purpose WHERE " + strings.Repeat("EXISTS (SELECT * FROM Purpose WHERE ", 30) +
		"purpose = 'x'" + strings.Repeat(")", 30)
	if _, err := db.Prepare(deep); !errors.Is(err, ErrTooComplex) {
		t.Errorf("deep prepare: %v", err)
	}
	// Non-SELECT statements are rejected by QueryExistsStmt.
	ins, err := db.Prepare(`INSERT INTO Policy VALUES (9, 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryExistsStmt(ins); err == nil {
		t.Error("INSERT through QueryExistsStmt should fail")
	}
}

func TestLikeEscape(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (s VARCHAR(32))`)
	db.MustExec(`INSERT INTO t VALUES ('50% off'), ('a_b'), ('aXb'), ('back\slash')`)
	got := queryStrings(t, db, `SELECT s FROM t WHERE s LIKE '50\% off'`)
	if flat(got) != "50% off" {
		t.Errorf("escaped percent: %q", flat(got))
	}
	got = queryStrings(t, db, `SELECT s FROM t WHERE s LIKE 'a\_b'`)
	if flat(got) != "a_b" {
		t.Errorf("escaped underscore: %q", flat(got))
	}
	got = queryStrings(t, db, `SELECT COUNT(*) FROM t WHERE s LIKE 'a_b'`)
	if flat(got) != "2" {
		t.Errorf("unescaped underscore: %q", flat(got))
	}
}

func TestEscapeLike(t *testing.T) {
	cases := map[string]string{
		"plain":  "plain",
		"50%":    `50\%`,
		"a_b":    `a\_b`,
		`back\s`: `back\\s`,
	}
	for in, want := range cases {
		if got := EscapeLike(in); got != want {
			t.Errorf("EscapeLike(%q) = %q, want %q", in, got, want)
		}
		// The escaped form matches exactly itself.
		if !likeMatch(in, EscapeLike(in)) {
			t.Errorf("likeMatch(%q, escaped) = false", in)
		}
	}
}

func TestBetween(t *testing.T) {
	db := fixture(t, Options{})
	got := queryStrings(t, db, `SELECT COUNT(*) FROM Statement WHERE statement_id BETWEEN 1 AND 1`)
	if flat(got) != "2" {
		t.Errorf("between: %q", flat(got))
	}
	got = queryStrings(t, db, `SELECT COUNT(*) FROM Statement WHERE statement_id NOT BETWEEN 2 AND 9`)
	if flat(got) != "2" {
		t.Errorf("not between: %q", flat(got))
	}
}

func TestCaseWithoutElse(t *testing.T) {
	db := fixture(t, Options{})
	got := queryStrings(t, db, `SELECT CASE WHEN policy_id = 1 THEN 'one' END FROM Policy ORDER BY policy_id`)
	if flat(got) != "one;NULL" {
		t.Errorf("case no else: %q", flat(got))
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := fixture(t, Options{})
	got := queryStrings(t, db, `SELECT policy_id, purpose FROM Purpose ORDER BY policy_id DESC, purpose ASC`)
	if flat(got) != "2,current;2,telemarketing;1,contact;1,current;1,individual-decision" {
		t.Errorf("multi-key order: %q", flat(got))
	}
}

func TestUpdatePrimaryKeyViolation(t *testing.T) {
	db := fixture(t, Options{})
	if _, err := db.Exec(`UPDATE Policy SET policy_id = 2 WHERE policy_id = 1`); err == nil {
		t.Error("PK-violating update should fail")
	}
	// The non-conflicting update works and keeps indexes consistent.
	if _, err := db.Exec(`UPDATE Policy SET policy_id = 7 WHERE policy_id = 1`); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, `SELECT name FROM Policy WHERE Policy.policy_id = 7`)
	if flat(got) != "volga" {
		t.Errorf("after pk update: %q", flat(got))
	}
	got = queryStrings(t, db, `SELECT COUNT(*) FROM Policy WHERE Policy.policy_id = 1`)
	if flat(got) != "0" {
		t.Errorf("old key still indexed: %q", flat(got))
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE "select" (a INTEGER)`)
	db.MustExec(`INSERT INTO "select" VALUES (1) -- trailing comment`)
	got := queryStrings(t, db, `SELECT a FROM "select" -- comment
		WHERE a = 1`)
	if flat(got) != "1" {
		t.Errorf("quoted ident: %q", flat(got))
	}
}

func TestConcat(t *testing.T) {
	db := fixture(t, Options{})
	got := queryStrings(t, db, `SELECT name || '-' || policy_id FROM Policy WHERE policy_id = 1`)
	if flat(got) != "volga-1" {
		t.Errorf("concat: %q", flat(got))
	}
}

func TestInsertDefaultColumnOrder(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b VARCHAR(4))`)
	db.MustExec(`INSERT INTO t VALUES (1, 'x')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`); err == nil {
		t.Error("short row without column list should fail")
	}
	db.MustExec(`INSERT INTO t (b) VALUES ('y')`)
	got := queryStrings(t, db, `SELECT a, b FROM t ORDER BY b`)
	if flat(got) != "1,x;NULL,y" {
		t.Errorf("got %q", flat(got))
	}
}

func TestStatsCounters(t *testing.T) {
	db := fixture(t, Options{})
	db.ResetStats()
	if _, err := db.Query(`SELECT * FROM Policy`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Statements != 1 || st.RowsScanned != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER NOT NULL, PRIMARY KEY (a))`)
	done := make(chan error, 10)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				_, err := db.Exec(`INSERT INTO t VALUES (?)`, Int(int64(w*1000+i)))
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 8; r++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := db.Query(`SELECT COUNT(*) FROM (SELECT * FROM t) AS v`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got := queryStrings(t, db, `SELECT COUNT(*) FROM t`)
	if flat(got) != "100" {
		t.Errorf("final count: %q", flat(got))
	}
}

// TestBestIndexChoice pins the access-path choice the executor makes per
// probe: the covered index with the most columns, and among equals the
// first by (case-folded) name — whatever order the indexes were created
// in.
func TestBestIndexChoice(t *testing.T) {
	db := New()
	db.MustExec(`CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, PRIMARY KEY (a, b, c))`)
	db.MustExec(`CREATE INDEX zeta ON t (a)`)
	db.MustExec(`CREATE INDEX mid ON t (a, b)`)
	db.MustExec(`CREATE INDEX Beta ON t (a)`)
	db.MustExec(`CREATE INDEX alpha ON t (b)`)
	tbl := db.Table("t")
	for _, c := range []struct {
		available []int
		want      string
	}{
		{[]int{0}, "Beta"},
		{[]int{1}, "alpha"},
		{[]int{0, 1}, "mid"},
		{[]int{0, 1, 2}, "__pk"},
		{[]int{0, 2}, "Beta"},
		{[]int{2}, ""},
		{nil, ""},
	} {
		got := ""
		if ix := bestIndex(tbl, c.available); ix != nil {
			got = ix.name
		}
		if got != c.want {
			t.Errorf("available columns %v: chose %q, want %q", c.available, got, c.want)
		}
	}
}
