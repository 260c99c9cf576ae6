package sqlgen

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/reldb"
	"p3pdb/internal/workload"
)

// builtCorpus is every preference text the built-versus-parsed properties
// run over: the conformance corpus core's engines are held to, the paper's
// Jane examples, the five JRC levels, and 200 distinct variant texts.
func builtCorpus(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{
		"jane":            appel.JanePreferenceXML,
		"jane-simplified": appel.JaneSimplifiedRuleXML,
	}
	dir := filepath.Join("..", "core", "testdata", "conformance", "preferences")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("conformance preferences: %v (%d files)", err, len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["conformance/"+e.Name()] = string(data)
	}
	for _, p := range workload.JRCPreferences() {
		out["level/"+p.Level] = p.XML
		for i, v := range workload.PreferenceVariants(p.Level, 40) {
			out[fmt.Sprintf("variant/%s/%d", p.Level, i)] = v.XML
		}
	}
	return out
}

// TestBuiltEqualsParsed holds the translator and the printer to each
// other: the statement built for a rule is exactly the tree the parser
// reads from its printed text, so the text in RuleQuery.SQL says what the
// site executes, and printing is a fixpoint under parse and print.
func TestBuiltEqualsParsed(t *testing.T) {
	applicables := map[string]*reldb.SelectStmt{"param": ParamPolicySubquery()}
	fixed, err := parseApplicable(FixedPolicySubquery(7))
	if err != nil {
		t.Fatal(err)
	}
	applicables["fixed"] = fixed

	for name, prefXML := range builtCorpus(t) {
		rs, err := appel.Parse(prefXML)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for appName, applicable := range applicables {
			built, err := BuildRulesetOptimized(rs, applicable)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, b := range built {
				text := b.Stmt.SQL()
				parsed, err := reldb.Parse(text)
				if err != nil {
					t.Fatalf("%s rule %d (%s): printed text does not parse: %v\n%s", name, i+1, appName, err, text)
				}
				if !reflect.DeepEqual(parsed, reldb.Statement(b.Stmt)) {
					t.Fatalf("%s rule %d (%s): parsed text differs from the built statement\n%s", name, i+1, appName, text)
				}
				if again := parsed.(*reldb.SelectStmt).SQL(); again != text {
					t.Fatalf("%s rule %d (%s): print is not a fixpoint\nfirst:  %s\nsecond: %s", name, i+1, appName, text, again)
				}
			}
		}
	}
}
