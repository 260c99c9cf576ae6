package reldb_test

// Tests of the bound plan against the schemas and statements the site
// serves, which need the packages that build them (shred, sqlgen,
// xtable) and so live outside package reldb.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reldb"
	"p3pdb/internal/resource"
	"p3pdb/internal/shred"
	"p3pdb/internal/sqlgen"
	"p3pdb/internal/workload"
	"p3pdb/internal/xqgen"
	"p3pdb/internal/xtable"
)

var update = flag.Bool("update", false, "rewrite testdata/explain.golden")

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// figure14 opens a database with the optimized (Figure 14) schema and
// the given policies installed, frozen as a site publishes it.
func figure14(t testing.TB, pols ...*p3p.Policy) (*reldb.DB, []int) {
	t.Helper()
	db := reldb.New()
	store, err := shred.NewOptimized(db)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(pols))
	for i, pol := range pols {
		if ids[i], err = store.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	db.Freeze()
	return db, ids
}

func buildRules(t testing.TB, prefXML string) []sqlgen.RuleStmt {
	t.Helper()
	rs, err := appel.Parse(prefXML)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := sqlgen.BuildRulesetOptimized(rs, sqlgen.ParamPolicySubquery())
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestExplainGolden pins the plans of the statements the paper is about:
// the Figure 15 rules of Jane's preference and the JRC High rules over
// the Figure 14 catalog, and one XTABLE statement over the generic
// schema's views. Every correlated EXISTS must be an index probe with
// its join conjuncts consumed by the probe; a change here is a change of
// access path and has to be meant. Run with -update to rewrite.
func TestExplainGolden(t *testing.T) {
	var out strings.Builder
	opt, _ := figure14(t)
	high, _ := workload.PreferenceByLevel("High")
	for _, pref := range []struct{ name, xml string }{{"jane", appel.JanePreferenceXML}, {"high", high.XML}} {
		for i, rule := range buildRules(t, pref.xml) {
			plan, err := opt.Explain(rule.Stmt)
			if err != nil {
				t.Fatalf("%s rule %d: %v", pref.name, i+1, err)
			}
			fmt.Fprintf(&out, "-- %s rule %d: %s\n%s\n", pref.name, i+1, rule.Stmt.SQL(), plan)
		}
	}

	gen := reldb.New()
	if _, err := shred.NewGeneric(gen); err != nil {
		t.Fatal(err)
	}
	rs, err := appel.Parse(appel.JaneSimplifiedRuleXML)
	if err != nil {
		t.Fatal(err)
	}
	xqs, err := xqgen.TranslateRuleset(rs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := xtable.TranslateXQuery(xqs[0].XQuery, sqlgen.FixedPolicySubquery(1), xtable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := gen.Prepare(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gen.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "-- xtable jane-simplified rule 1: %s\n%s", q.SQL, plan)

	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("plans differ from %s (run with -update if the change is meant):\n%s", golden, out.String())
	}
}

// TestBoundRuleAllocations holds the executor to its claim: running a
// bound High rule against a frozen database allocates nothing, however
// many rows the statement visits, and binding a freshly built rule is the plan's
// handful of arrays (the rules have 15 to 80 nodes), not an allocation
// per node.
func TestBoundRuleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := workload.Generate(42)
	db, ids := figure14(t, d.Policies...)
	high, _ := workload.PreferenceByLevel("High")
	ctx := context.Background()
	var most, fewest int64 = 0, 1 << 62
	for i, rule := range buildRules(t, high.XML) {
		for pi, id := range ids {
			params := []reldb.Value{reldb.Int(int64(id))}
			m := resource.NewMeter(ctx, 1<<40)
			mctx := resource.WithMeter(ctx, m)
			if _, err := db.QueryExistsStmtCtx(mctx, rule.Stmt, params...); err != nil {
				t.Fatal(err)
			}
			most, fewest = max(most, m.Steps()), min(fewest, m.Steps())
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := db.QueryExistsStmtCtx(ctx, rule.Stmt, params...); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("rule %d, policy %s (%d steps): %v allocations per execution, want 0", i+1, d.Policies[pi].Name, m.Steps(), allocs)
			}
		}
	}
	if most < 4*fewest {
		t.Errorf("executions visited between %d and %d steps: too alike to show allocations do not grow with rows", fewest, most)
	}

	rs, err := appel.Parse(high.XML)
	if err != nil {
		t.Fatal(err)
	}
	applicable := sqlgen.ParamPolicySubquery()
	params := []reldb.Value{reldb.Int(int64(ids[0]))}
	build := func(run bool) float64 {
		return testing.AllocsPerRun(20, func() {
			rules, err := sqlgen.BuildRulesetOptimized(rs, applicable)
			if err != nil {
				t.Fatal(err)
			}
			for _, rule := range rules {
				if run {
					if _, err := db.QueryExistsStmtCtx(ctx, rule.Stmt, params...); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	perRule := (build(true) - build(false)) / float64(len(rs.Rules))
	if perRule > 14 {
		t.Errorf("binding and running a fresh rule allocates %.1f times, want at most 14", perRule)
	}
}

// FuzzBindExec binds and runs arbitrary SELECT text against the Figure
// 14 schema with two policies installed. Whatever parses must bind or
// fail without panicking, must run without panicking, and a plan reused
// from the statement must return what a freshly bound one returns.
// Seeded with testdata/corpus, the statements the site serves.
func FuzzBindExec(f *testing.F) {
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
	for _, s := range []string{
		`SELECT p.policy_id, COUNT(*) FROM Policy p, Statement s WHERE s.policy_id = p.policy_id GROUP BY p.policy_id ORDER BY p.policy_id DESC`,
		`SELECT DISTINCT purpose FROM Purpose WHERE policy_id = ? ORDER BY purpose LIMIT 3`,
		`SELECT v.purpose FROM (SELECT * FROM Purpose) AS v WHERE v.policy_id = ? AND v.required <> 'always'`,
		`SELECT statement_id FROM Statement WHERE policy_id IN (SELECT policy_id FROM Policy) AND (SELECT COUNT(*) FROM Purpose u WHERE u.statement_id = Statement.statement_id) > 1`,
		`SELECT nosuch FROM Policy`, `SELECT 1 / 0 FROM Policy`, `SELECT MAX(policy_id) FROM Policy WHERE MAX(policy_id) > 1`,
	} {
		f.Add(s)
	}
	d := workload.Generate(42)
	db, ids := figure14(f, d.Policies[0], d.Policies[1])
	params := []reldb.Value{reldb.Int(int64(ids[1]))}
	f.Fuzz(func(t *testing.T, src string) {
		run := func() (*reldb.Rows, error) {
			stmt, err := db.Prepare(src)
			if _, ok := stmt.(*reldb.SelectStmt); err != nil || !ok {
				return nil, nil
			}
			// A budget keeps a generated cross join from running away.
			ctx := resource.WithMeter(context.Background(), resource.NewMeter(context.Background(), 200000))
			first, err := db.QueryStmtCtx(ctx, stmt, params...)
			if err != nil {
				return nil, err
			}
			ctx = resource.WithMeter(context.Background(), resource.NewMeter(context.Background(), 200000))
			again, err := db.QueryStmtCtx(ctx, stmt, params...)
			if err != nil {
				t.Fatalf("the reused plan failed where the fresh one ran: %v\n%s", err, src)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("the reused plan returned other rows\nfresh:  %v\nreused: %v\n%s", first, again, src)
			}
			return first, nil
		}
		// Two statements parsed from the same text bind separately and
		// must agree as well.
		a, errA := run()
		b, errB := run()
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("two bindings of one text disagree: %v / %v\n%s", errA, errB, src)
		}
	})
}
