package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/reldb"
	"p3pdb/internal/sqlgen"
)

// readConformanceDir loads every XML file of one side of the conformance
// corpus, keyed by file stem.
func readConformanceDir(t *testing.T, side string) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "conformance", side)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("conformance corpus: %v", err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("conformance corpus %s: %v", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".xml")] = string(data)
	}
	if len(out) == 0 {
		t.Fatalf("conformance corpus %s is empty", dir)
	}
	return out
}

// matchPrintedSQL decides a pair the way a holder of only the SQL text
// would: the rule queries as sqlgen prints them, prepared through the
// engine's text entry point and executed in rule order.
func matchPrintedSQL(t *testing.T, s *Site, prefXML, polName string) (behavior string, rule int) {
	t.Helper()
	rs, err := appel.Parse(prefXML)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := sqlgen.TranslateRulesetOptimized(rs, "SELECT ? AS policy_id")
	if err != nil {
		t.Fatal(err)
	}
	st := s.state.Load()
	for i, q := range queries {
		stmt, err := st.optDB.Prepare(q.SQL)
		if err != nil {
			t.Fatalf("rule %d: %v\n%s", i+1, err, q.SQL)
		}
		fired, err := st.optDB.QueryExistsStmt(stmt, reldb.Int(int64(st.entries[polName].id)))
		if err != nil {
			t.Fatalf("rule %d: %v\n%s", i+1, err, q.SQL)
		}
		if fired {
			return q.Behavior, i
		}
	}
	t.Fatal("no printed rule query fired")
	return "", 0
}

// TestConformanceCorpus is the differential conformance gate: every
// (policy, preference) pair in testdata/conformance runs through all
// four engines, and every engine must reach the native baseline's ruling
// (behavior and fired rule). The corpus is curated edge cases — empty
// DATA-GROUPs, connective corners, non-matching namespaces — where a
// translation shortcut would diverge silently; unlike the randomized
// differential, these pairs are stable, named, and run in -short mode.
// The XTable path may reject a pair with reldb.ErrTooComplex (the
// paper's blank Figure 21 cell); any other divergence fails. The SQL
// engine runs statements built as trees; the text printed from those
// trees must reach the same ruling when prepared and executed as text.
func TestConformanceCorpus(t *testing.T) {
	policies := readConformanceDir(t, "policies")
	preferences := readConformanceDir(t, "preferences")

	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	policyNames := make([]string, 0, len(policies))
	for stem, xml := range policies {
		names, err := s.InstallPolicyXML(xml)
		if err != nil {
			t.Fatalf("install %s: %v", stem, err)
		}
		policyNames = append(policyNames, names...)
	}

	for prefStem, prefXML := range preferences {
		for _, polName := range policyNames {
			t.Run(prefStem+"/"+polName, func(t *testing.T) {
				base, err := s.MatchPolicy(prefXML, polName, EngineNative)
				if err != nil {
					t.Fatalf("native baseline: %v", err)
				}
				for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery} {
					got, err := s.MatchPolicy(prefXML, polName, engine)
					if err != nil {
						if engine == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
							t.Logf("xtable rejected (too complex), tolerated")
							continue
						}
						t.Errorf("%v: %v", engine, err)
						continue
					}
					if got.Behavior != base.Behavior || got.RuleIndex != base.RuleIndex {
						t.Errorf("%v disagrees with native: got %s/rule %d, want %s/rule %d",
							engine, got.Behavior, got.RuleIndex, base.Behavior, base.RuleIndex)
					}
				}
				if behavior, rule := matchPrintedSQL(t, s, prefXML, polName); behavior != base.Behavior || rule != base.RuleIndex {
					t.Errorf("printed SQL disagrees with native: got %s/rule %d, want %s/rule %d",
						behavior, rule, base.Behavior, base.RuleIndex)
				}
			})
		}
	}
}
