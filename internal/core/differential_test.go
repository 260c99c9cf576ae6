package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reldb"
	"p3pdb/internal/resource"
	"p3pdb/internal/sqlgen"
	"p3pdb/internal/workload"
)

// randomRuleset builds a random APPEL ruleset over the vocabulary every
// translator supports. General-level expressions draw from the four
// non-exact connectives (the optimized translator rejects exact there, by
// design); value-level expressions draw from all six.
func randomRuleset(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(`<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1"` + "\n" +
		` xmlns="http://www.w3.org/2002/01/P3Pv1">` + "\n")
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		behavior := []string{"block", "limited"}[r.Intn(2)]
		conn := ""
		if r.Intn(4) == 0 {
			conn = connAttr(generalConnective(r))
		}
		body := randomPolicyExpr(r)
		if r.Intn(5) == 0 {
			body += randomPolicyExpr(r) // multi-expression rule body
		}
		fmt.Fprintf(&b, `<appel:RULE behavior="%s"%s>%s</appel:RULE>`+"\n",
			behavior, conn, body)
	}
	b.WriteString(`<appel:OTHERWISE behavior="request"/>` + "\n</appel:RULESET>")
	return b.String()
}

func generalConnective(r *rand.Rand) string {
	return []string{"", "and", "or", "non-and", "non-or"}[r.Intn(5)]
}

func valueConnective(r *rand.Rand) string {
	// Exact connectives appear with low weight: they are rare in real
	// preferences and their generic-schema expansion trips the
	// complexity limit, which would starve the XTable comparison.
	if r.Intn(10) == 0 {
		return []string{"and-exact", "or-exact"}[r.Intn(2)]
	}
	return []string{"", "and", "or", "non-and", "non-or"}[r.Intn(5)]
}

func connAttr(c string) string {
	if c == "" {
		return ""
	}
	return ` appel:connective="` + c + `"`
}

func randomPolicyExpr(r *rand.Rand) string {
	n := 1 + r.Intn(2)
	var kids []string
	for i := 0; i < n; i++ {
		kids = append(kids, randomStatementExpr(r))
	}
	return "<POLICY" + connAttr(generalConnective(r)) + ">" + strings.Join(kids, "") + "</POLICY>"
}

func randomStatementExpr(r *rand.Rand) string {
	var kids []string
	if r.Intn(2) == 0 {
		kids = append(kids, randomValueList(r, "PURPOSE", []string{
			"current", "admin", "develop", "contact", "telemarketing",
			"individual-decision", "individual-analysis", "pseudo-analysis",
		}, true))
	}
	if r.Intn(3) == 0 {
		kids = append(kids, randomValueList(r, "RECIPIENT", []string{
			"ours", "same", "delivery", "unrelated", "public", "other-recipient",
		}, true))
	}
	if r.Intn(3) == 0 {
		kids = append(kids, randomValueList(r, "RETENTION", []string{
			"no-retention", "stated-purpose", "business-practices", "indefinitely",
		}, false))
	}
	if r.Intn(3) == 0 || len(kids) == 0 {
		kids = append(kids, randomDataGroupExpr(r))
	}
	if r.Intn(6) == 0 {
		kids = append(kids, "<CONSEQUENCE/>")
	}
	return "<STATEMENT" + connAttr(generalConnective(r)) + ">" + strings.Join(kids, "") + "</STATEMENT>"
}

func randomValueList(r *rand.Rand, parent string, values []string, withRequired bool) string {
	n := 1 + r.Intn(3)
	seen := map[string]bool{}
	var kids []string
	for i := 0; i < n; i++ {
		v := values[r.Intn(len(values))]
		if seen[v] {
			continue
		}
		seen[v] = true
		attr := ""
		if withRequired {
			switch r.Intn(5) {
			case 0:
				attr = ` required="always"`
			case 1:
				attr = ` required="opt-in"`
			case 2:
				attr = ` required="opt-out"`
			case 3:
				attr = ` required="*"`
			}
		}
		kids = append(kids, "<"+v+attr+"/>")
	}
	return "<" + parent + connAttr(valueConnective(r)) + ">" + strings.Join(kids, "") + "</" + parent + ">"
}

func randomDataGroupExpr(r *rand.Rand) string {
	refs := []string{
		"#user.name", "#user.name.given", "#user.home-info",
		"#user.home-info.postal", "#user.home-info.online.email",
		"#user.bdate", "#user.login", "#dynamic.miscdata",
		"#dynamic.clickstream", "#dynamic.searchtext", "*",
	}
	cats := []string{"physical", "online", "purchase", "financial", "demographic", "health", "uniqueid"}
	n := 1 + r.Intn(2)
	var kids []string
	for i := 0; i < n; i++ {
		ref := refs[r.Intn(len(refs))]
		inner := ""
		if r.Intn(2) == 0 {
			m := 1 + r.Intn(2)
			seen := map[string]bool{}
			var cvs []string
			for j := 0; j < m; j++ {
				c := cats[r.Intn(len(cats))]
				if seen[c] {
					continue
				}
				seen[c] = true
				cvs = append(cvs, "<"+c+"/>")
			}
			inner = "<CATEGORIES" + connAttr(valueConnective(r)) + ">" + strings.Join(cvs, "") + "</CATEGORIES>"
		}
		if inner == "" {
			kids = append(kids, `<DATA ref="`+ref+`"/>`)
		} else {
			kids = append(kids, `<DATA ref="`+ref+`">`+inner+`</DATA>`)
		}
	}
	return "<DATA-GROUP" + connAttr(generalConnective(r)) + ">" + strings.Join(kids, "") + "</DATA-GROUP>"
}

// adversarialPreference builds a wide, deeply structured ruleset: many
// rules, each nesting POLICY→STATEMENT→PURPOSE/DATA-GROUP/CATEGORIES
// expressions with mixed connectives. Every translation multiplies it —
// nested EXISTS chains in SQL, XML-view reconstructions per rule in
// XTABLE, long path walks in XQuery — so evaluating it is expensive on
// every engine, while each individual rule stays under the complexity
// limits the XTABLE path enforces.
func adversarialPreference(rules int) string {
	var b strings.Builder
	b.WriteString(`<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1"` + "\n" +
		` xmlns="http://www.w3.org/2002/01/P3Pv1">` + "\n")
	purposes := []string{"current", "admin", "develop", "contact", "telemarketing", "individual-decision"}
	for i := 0; i < rules; i++ {
		req := []string{"always", "opt-in", "opt-out"}[i%3]
		var pv strings.Builder
		for _, p := range purposes {
			fmt.Fprintf(&pv, `<%s required="%s"/>`, p, req)
		}
		conn := []string{"and", "or", "non-and", "non-or"}[i%4]
		fmt.Fprintf(&b,
			`<appel:RULE behavior="block"><POLICY><STATEMENT appel:connective="%s">`+
				`<PURPOSE appel:connective="and">%s</PURPOSE>`+
				`<DATA-GROUP><DATA ref="#user.home-info.postal"><CATEGORIES appel:connective="or">`+
				`<physical/><demographic/></CATEGORIES></DATA>`+
				`<DATA ref="#dynamic.miscdata"><CATEGORIES><uniqueid/></CATEGORIES></DATA>`+
				`</DATA-GROUP></STATEMENT></POLICY></appel:RULE>`+"\n",
			conn, pv.String())
	}
	b.WriteString(`<appel:OTHERWISE behavior="request"/>` + "\n</appel:RULESET>")
	return b.String()
}

// nestedAdversarialPreference is adversarial in one rule rather than in
// many: a single POLICY expression carrying the given number of STATEMENT
// expressions, each listing six PURPOSE values under the and connective.
// The SQL translation spends one query block per statement and one per
// value, so nine statements outgrow the relational engine's 64-block
// statement limit while eight stay under it, although the body nests no
// deeper than any other preference. The non-and connective keeps it
// outside the summary-safe fragment, so a /check falls back to the
// engine.
func nestedAdversarialPreference(statements int) string {
	var b strings.Builder
	b.WriteString(`<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1"` +
		` xmlns="http://www.w3.org/2002/01/P3Pv1">` +
		`<appel:RULE behavior="block"><POLICY appel:connective="non-and">`)
	for i := 0; i < statements; i++ {
		b.WriteString(`<STATEMENT><PURPOSE appel:connective="and">` +
			`<current/><admin/><develop/><contact/><telemarketing/><individual-decision/>` +
			`</PURPOSE></STATEMENT>`)
	}
	b.WriteString(`</POLICY></appel:RULE><appel:OTHERWISE behavior="request"/></appel:RULESET>`)
	return b.String()
}

// TestAdversarialDifferential: with no fault active, all engines agree
// with the native baseline on the adversarial preferences across a corpus
// cross-section.
func TestAdversarialDifferential(t *testing.T) {
	d := workload.Generate(42)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	policies := []*p3p.Policy{d.Policies[0], d.Policies[14], d.Policies[28]}
	for _, pol := range policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	prefs := map[int]string{0: nestedAdversarialPreference(8)} // just under the block limit
	for _, rules := range []int{1, 8, 24} {
		prefs[rules] = adversarialPreference(rules)
	}
	for rules, pref := range prefs {
		for _, pol := range policies {
			base, err := s.MatchPolicy(pref, pol.Name, EngineNative)
			if err != nil {
				t.Fatalf("%d rules, native vs %s: %v", rules, pol.Name, err)
			}
			for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery} {
				got, err := s.MatchPolicy(pref, pol.Name, engine)
				if err != nil {
					if engine == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
						continue
					}
					t.Fatalf("%d rules, %v vs %s: %v", rules, engine, pol.Name, err)
				}
				if got.Behavior != base.Behavior || got.RuleIndex != base.RuleIndex {
					t.Fatalf("%d rules: %v disagrees with native on %s: %s/%d vs %s/%d",
						rules, engine, pol.Name, got.Behavior, got.RuleIndex, base.Behavior, base.RuleIndex)
				}
			}
		}
	}
}

// TestAdversarialPreferenceBudgetAborts is the acceptance gate for the
// resource governor: the adversarial preference, matched under a small
// budget, must abort with ErrBudgetExceeded — on the SQL, XTABLE, and
// XQuery engines and the native baseline alike — and do so in bounded
// time, proving the budget cuts evaluation off rather than letting it
// run to completion. The same site without a budget completes the match,
// so the abort is attributable to governance, not the preference.
func TestAdversarialPreferenceBudgetAborts(t *testing.T) {
	d := workload.Generate(42)
	pref := adversarialPreference(40)
	pol := d.Policies[28] // largest policy: most rows, widest documents

	free, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewSiteWithOptions(Options{MatchBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Site{free, capped} {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}

	for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery, EngineNative} {
		if _, err := free.MatchPolicy(pref, pol.Name, engine); err != nil {
			if engine == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
				continue // then the budget test below is moot for XTable
			}
			t.Fatalf("%v ungoverned: %v", engine, err)
		}
		start := time.Now()
		_, err := capped.MatchPolicy(pref, pol.Name, engine)
		elapsed := time.Since(start)
		if !errors.Is(err, resource.ErrBudgetExceeded) {
			t.Fatalf("%v: want ErrBudgetExceeded under budget 50, got %v", engine, err)
		}
		// Bounded: the budget trips within the first handful of steps;
		// anything near a second means evaluation ran on unmetered.
		if elapsed > 5*time.Second {
			t.Fatalf("%v: budget abort took %v, not bounded", engine, elapsed)
		}
	}

	// Limits come before budgets. A body whose SQL translation outgrows
	// the engine's statement limits is refused when it is converted, with
	// or without a budget — and the statement, built as a tree, is
	// refused with the very error Prepare gives its printed text. The
	// native engine has no such limit and still decides.
	nested := nestedAdversarialPreference(9)
	rs, err := appel.Parse(nested)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := sqlgen.TranslateRulesetOptimized(rs, "SELECT ? AS policy_id")
	if err != nil {
		t.Fatal(err)
	}
	_, textErr := free.DB().Prepare(queries[0].SQL)
	if !errors.Is(textErr, reldb.ErrTooComplex) {
		t.Fatalf("Prepare of the printed nested rule: want ErrTooComplex, got %v", textErr)
	}
	for name, s := range map[string]*Site{"free": free, "capped": capped} {
		_, err := s.MatchPolicy(nested, pol.Name, EngineSQL)
		if !errors.Is(err, reldb.ErrTooComplex) || !strings.HasSuffix(err.Error(), textErr.Error()) {
			t.Fatalf("%s site, nested body on the SQL engine: got %v, want the text path's %v", name, err, textErr)
		}
	}
	if _, err := free.MatchPolicy(nested, pol.Name, EngineNative); err != nil {
		t.Fatalf("native engine on the nested body: %v", err)
	}
}

// TestRandomizedFiveWayDifferential matches randomized rulesets against
// the generated corpus on every engine and requires identical decisions.
// The XTable path may reject exact-heavy rulesets with the complexity
// error, mirroring the Medium blank cell; any other divergence fails.
func TestRandomizedFiveWayDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential is slow")
	}
	d := workload.Generate(42)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	// A subset of the corpus keeps the matrix fast while covering the
	// size range (smallest, median, largest, plus variety).
	policies := []*p3p.Policy{
		d.Policies[0], d.Policies[4], d.Policies[7], d.Policies[14],
		d.Policies[21], d.Policies[25], d.Policies[28],
	}
	for _, pol := range policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(99))
	const rounds = 60
	tooComplex := 0
	for round := 0; round < rounds; round++ {
		prefXML := randomRuleset(r)
		for _, pol := range policies {
			base, err := s.MatchPolicy(prefXML, pol.Name, EngineNative)
			if err != nil {
				t.Fatalf("round %d native vs %s: %v\nruleset:\n%s", round, pol.Name, err, prefXML)
			}
			for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery} {
				got, err := s.MatchPolicy(prefXML, pol.Name, engine)
				if err != nil {
					if engine == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
						tooComplex++
						continue
					}
					t.Fatalf("round %d %v vs %s: %v\nruleset:\n%s", round, engine, pol.Name, err, prefXML)
				}
				if got.Behavior != base.Behavior || got.RuleIndex != base.RuleIndex {
					t.Fatalf("round %d: %v disagrees with native on %s:\n got %s/rule %d, want %s/rule %d\nruleset:\n%s",
						round, engine, pol.Name,
						got.Behavior, got.RuleIndex, base.Behavior, base.RuleIndex, prefXML)
				}
			}
		}
	}
	t.Logf("%d rounds, %d XTable too-complex rejections", rounds, tooComplex)
}
