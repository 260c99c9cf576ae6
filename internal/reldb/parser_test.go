package reldb

import (
	"errors"
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("SELECT a.b, 'it''s', 3.5 FROM t WHERE x <> 2 -- comment\n AND y LIKE 'a%'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "3.5", "FROM", "t", "WHERE", "x", "<>", "2", "AND", "y", "LIKE", "a%"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "a @ b"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q): expected error", src)
		}
	}
}

func TestParseSelectShape(t *testing.T) {
	stmt, err := Parse(`SELECT 'block' AS behavior, p.policy_id
		FROM Policy p, Statement AS s
		WHERE p.policy_id = s.policy_id AND EXISTS (
			SELECT * FROM Purpose WHERE Purpose.statement_id = s.statement_id
			AND (Purpose.purpose = 'admin' OR Purpose.purpose = 'contact' AND Purpose.required = 'always'))
		ORDER BY p.policy_id DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if len(sel.Items) != 2 || sel.Items[0].Alias != "behavior" {
		t.Errorf("select items: %+v", sel.Items)
	}
	if len(sel.From) != 2 || sel.From[0].Alias != "p" || sel.From[1].Alias != "s" {
		t.Errorf("from: %+v", sel.From)
	}
	if sel.Limit != 10 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order/limit: %+v %d", sel.OrderBy, sel.Limit)
	}
	and, ok := sel.Where.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("where: %#v", sel.Where)
	}
	if _, ok := and.Right.(*ExistsExpr); !ok {
		t.Errorf("right of AND should be EXISTS, got %#v", and.Right)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or := stmt.(*SelectStmt).Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top op = %s, want OR (AND binds tighter)", or.Op)
	}
	and := or.Right.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("right = %s, want AND", and.Op)
	}
}

func TestParseNotIn(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE purpose NOT IN ('current', 'admin')")
	if err != nil {
		t.Fatal(err)
	}
	in := stmt.(*SelectStmt).Where.(*InExpr)
	if !in.Negated || len(in.List) != 2 {
		t.Errorf("in: %+v", in)
	}
}

func TestParseInSubquery(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE id IN (SELECT policy_id FROM Policyref)")
	if err != nil {
		t.Fatal(err)
	}
	in := stmt.(*SelectStmt).Where.(*InExpr)
	if in.Subquery == nil {
		t.Error("expected IN subquery")
	}
}

func TestParseIsNullBetweenCase(t *testing.T) {
	stmt, err := Parse(`SELECT CASE WHEN a IS NULL THEN 'n' WHEN a BETWEEN 1 AND 5 THEN 'mid' ELSE 'hi' END FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	c := stmt.(*SelectStmt).Items[0].Expr.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
	if _, ok := c.Whens[0].Cond.(*IsNullExpr); !ok {
		t.Errorf("first WHEN should be IS NULL, got %#v", c.Whens[0].Cond)
	}
}

func TestParseDerivedTable(t *testing.T) {
	stmt, err := Parse("SELECT ap.policy_id FROM (SELECT 3 AS policy_id) AS ap")
	if err != nil {
		t.Fatal(err)
	}
	from := stmt.(*SelectStmt).From
	if len(from) != 1 || from[0].Subquery == nil || from[0].Alias != "ap" {
		t.Errorf("from: %+v", from)
	}
	if _, err := Parse("SELECT * FROM (SELECT 1)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseDML(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	stmt, err = Parse("UPDATE t SET a = a + 1, b = 'z' WHERE a < 5")
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
	stmt, err = Parse("DELETE FROM t WHERE b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DeleteStmt).Where == nil {
		t.Error("delete where missing")
	}
}

func TestParseDDL(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE Purpose (
		policy_id INTEGER NOT NULL,
		statement_id INTEGER NOT NULL,
		purpose VARCHAR(32) NOT NULL,
		required VARCHAR(16),
		PRIMARY KEY (policy_id, statement_id, purpose))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if len(ct.Columns) != 4 || len(ct.PrimaryKey) != 3 {
		t.Errorf("create table: %+v", ct)
	}
	if ct.Columns[0].Nullable || !ct.Columns[3].Nullable {
		t.Errorf("nullability wrong: %+v", ct.Columns)
	}
	stmt, err = Parse("CREATE UNIQUE INDEX ix ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndexStmt)
	if !ci.Unique || len(ci.Columns) != 2 {
		t.Errorf("create index: %+v", ci)
	}
	if _, err := Parse("DROP TABLE t"); err != nil {
		t.Errorf("drop: %v", err)
	}
}

func TestParseFetchFirst(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t FETCH FIRST 1 ROWS ONLY")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.(*SelectStmt).Limit; got != 1 {
		t.Errorf("limit = %d", got)
	}
}

func TestParseParams(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = ? AND b = ?")
	if err != nil {
		t.Fatal(err)
	}
	and := stmt.(*SelectStmt).Where.(*BinaryExpr)
	p0 := and.Left.(*BinaryExpr).Right.(*Param)
	p1 := and.Right.(*BinaryExpr).Right.(*Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Errorf("param indexes: %d %d", p0.Index, p1.Index)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"INSERT t VALUES (1)",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT * FROM t; SELECT * FROM t",
		"SELECT * FROM t WHERE a = ",
		"SELECT CASE END FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestComplexityLimit(t *testing.T) {
	// Build nesting depth beyond the limit.
	depth := 30
	var b strings.Builder
	b.WriteString("SELECT * FROM t WHERE ")
	for i := 0; i < depth; i++ {
		b.WriteString("EXISTS (SELECT * FROM t WHERE ")
	}
	b.WriteString("a = 1")
	for i := 0; i < depth; i++ {
		b.WriteString(")")
	}
	tight := Options{MaxSubqueryDepth: 24, MaxSubqueries: 1000}
	_, err := parseWithLimit(b.String(), tight.limits())
	if err == nil {
		t.Fatal("expected complexity error")
	}
	if !errors.Is(err, ErrTooComplex) {
		t.Errorf("error %v should wrap ErrTooComplex", err)
	}
	// Under the limit it parses.
	loose := Options{MaxSubqueryDepth: 64, MaxSubqueries: 1000}
	stmt, err := parseWithLimit(b.String(), loose.limits())
	if err != nil {
		t.Fatalf("under limit: %v", err)
	}
	// The same statement as a built tree meets the same limits with the
	// same errors as its text: depth first, then the block count.
	sel := stmt.(*SelectStmt)
	if err := loose.CheckComplexity(sel); err != nil {
		t.Errorf("built tree under limit: %v", err)
	}
	for _, o := range []Options{tight, {MaxSubqueryDepth: 64, MaxSubqueries: 20}, {MaxSubqueryDepth: 10, MaxSubqueries: 5}, {}} {
		_, parseErr := parseWithLimit(b.String(), o.limits())
		builtErr := o.CheckComplexity(sel)
		if parseErr == nil || builtErr == nil || parseErr.Error() != builtErr.Error() || !errors.Is(builtErr, ErrTooComplex) {
			t.Errorf("limits %+v: parsed text fails with %v, built tree with %v", o, parseErr, builtErr)
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
}
