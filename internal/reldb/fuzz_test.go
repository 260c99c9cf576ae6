package reldb

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseSeeds are hand-written statements covering the grammar's corners.
func parseSeeds() []string {
	return []string{
		`SELECT 1`,
		`SELECT * FROM t WHERE a = 'x' AND EXISTS (SELECT * FROM u WHERE u.id = t.id)`,
		`INSERT INTO t (a, b) VALUES (1, 'x''y')`,
		`CREATE TABLE t (a INTEGER NOT NULL, PRIMARY KEY (a))`,
		`UPDATE t SET a = a + 1 WHERE b IS NOT NULL`,
		`DELETE FROM t WHERE a IN (1, 2, NULL)`,
		`SELECT COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b DESC LIMIT 3`,
		`SELECT CASE WHEN a LIKE 'x\%' THEN 1 ELSE 2 END FROM t`,
		`SELECT * FROM (SELECT 1 AS x) AS d FETCH FIRST 1 ROWS ONLY`,
		`SELECT -a, 1.5, 2e3, TRUE, NULL FROM "my table" t, u WHERE a NOT IN (SELECT b FROM u) AND c NOT LIKE 'x' OR d BETWEEN 1 AND 2`,
		`SELECT DISTINCT "select" FROM t WHERE (e IS NULL) IS NOT NULL AND f IN (1, 2) OR NOT (g = 1 OR h = ?) AND (SELECT MAX(x) FROM v) > a - (b - c) * -(d + 1) || 's'`,
		`SELEC`, `SELECT FROM`, `'unterminated`, `"q`, `SELECT * FROM t WHERE (((`,
	}
}

// FuzzParse checks the SQL parser never panics on arbitrary input.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Parse must return an error or an AST, never panic.
		_, _ = Parse(src)
	})
}

// FuzzPrintParse holds the printer to the parser: whatever SELECT the
// parser accepts prints as text that parses back to the same tree, and
// printing that tree again gives the same text. Seeded with the hand-
// written statements above and with testdata/corpus — the statements
// package sqlgen builds for the conformance preferences, the paper's
// Jane examples and the five JRC levels, as
// sqlgen.TranslateRulesetOptimized prints them.
func FuzzPrintParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.sql"))
	if err != nil || len(files) == 0 {
		f.Fatalf("seed corpus: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		sel, ok := stmt.(*SelectStmt)
		if err != nil || !ok {
			return
		}
		text := sel.SQL()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\nsource:  %q\nprinted: %q", err, src, text)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("printed text parses to a different tree\nsource:  %q\nprinted: %q", src, text)
		}
		if second := again.(*SelectStmt).SQL(); second != text {
			t.Fatalf("print is not a fixpoint\nfirst:  %q\nsecond: %q", text, second)
		}
	})
}

// FuzzLike cross-checks the LIKE matcher against the reference
// implementation on arbitrary inputs.
func FuzzLike(f *testing.F) {
	f.Add("abc", "a%")
	f.Add("", "%")
	f.Add("a_b", `a\_b`)
	f.Add("mississippi", "%iss%ppi")
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 256 || len(p) > 64 {
			return
		}
		got := likeMatch(s, p)
		want := likeRefDP(s, p)
		if got != want {
			t.Fatalf("likeMatch(%q,%q) = %v, reference %v", s, p, got, want)
		}
	})
}

// likeRefDP is a dynamic-programming reference for LIKE with escapes:
// O(len(s) x len(p)), immune to the exponential blowup a naive recursive
// reference hits on runs of '%'.
func likeRefDP(s, p string) bool {
	// tokens: (literal byte) | any-one | any-run
	type tok struct {
		kind byte // 'l', '_', '%'
		lit  byte
	}
	var toks []tok
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '%':
			toks = append(toks, tok{kind: '%'})
		case '_':
			toks = append(toks, tok{kind: '_'})
		case '\\':
			if i+1 < len(p) {
				toks = append(toks, tok{kind: 'l', lit: p[i+1]})
				i++
			} else {
				toks = append(toks, tok{kind: 'l', lit: '\\'})
			}
		default:
			toks = append(toks, tok{kind: 'l', lit: p[i]})
		}
	}
	// dp[j] = does toks[:j] match s[:i] for the current i.
	dp := make([]bool, len(toks)+1)
	next := make([]bool, len(toks)+1)
	dp[0] = true
	for j := 1; j <= len(toks); j++ {
		dp[j] = dp[j-1] && toks[j-1].kind == '%'
	}
	for i := 1; i <= len(s); i++ {
		next[0] = false
		for j := 1; j <= len(toks); j++ {
			switch toks[j-1].kind {
			case '%':
				next[j] = next[j-1] || dp[j]
			case '_':
				next[j] = dp[j-1]
			default:
				next[j] = dp[j-1] && s[i-1] == toks[j-1].lit
			}
		}
		dp, next = next, dp
	}
	return dp[len(toks)]
}
