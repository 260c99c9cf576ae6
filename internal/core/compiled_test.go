package core

import (
	"errors"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/resource"
	"p3pdb/internal/workload"
)

func TestCompiledPreferenceAgreesWithSQL(t *testing.T) {
	d := workload.Generate(42)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies[:10] {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	for _, pref := range d.Preferences {
		c, err := s.CompilePreference(pref.XML)
		if err != nil {
			t.Fatalf("%s: %v", pref.Level, err)
		}
		if c.Compile <= 0 {
			t.Errorf("%s: compile time not measured", pref.Level)
		}
		for _, pol := range d.Policies[:10] {
			want, err := s.MatchPolicy(pref.XML, pol.Name, EngineSQL)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.MatchCompiled(c, pol.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Behavior != want.Behavior || got.RuleIndex != want.RuleIndex {
				t.Errorf("%s vs %s: compiled %s/%d, direct %s/%d",
					pref.Level, pol.Name, got.Behavior, got.RuleIndex, want.Behavior, want.RuleIndex)
			}
			if got.Convert != 0 {
				t.Errorf("compiled match should have no conversion time")
			}
		}
	}
}

func TestCompiledSurvivesPolicyInstalls(t *testing.T) {
	s := siteWithVolga(t)
	c, err := s.CompilePreference(appel.JanePreferenceXML)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.MatchCompiled(c, "volga")
	if err != nil || d.Behavior != "request" {
		t.Fatalf("before: %+v %v", d, err)
	}
	// A policy installed after compilation is still matchable: the
	// compiled form parameterizes the policy id.
	v2 := `<POLICY name="other"><STATEMENT>
	  <PURPOSE><telemarketing/></PURPOSE><RECIPIENT><public/></RECIPIENT>
	  <RETENTION><indefinitely/></RETENTION>
	  <DATA-GROUP><DATA ref="#user.name"/></DATA-GROUP>
	</STATEMENT></POLICY>`
	if _, err := s.InstallPolicyXML(v2); err != nil {
		t.Fatal(err)
	}
	d, err = s.MatchCompiled(c, "other")
	if err != nil || d.Behavior != "block" {
		t.Fatalf("after install: %+v %v", d, err)
	}
}

func TestCompiledErrors(t *testing.T) {
	s := siteWithVolga(t)
	if _, err := s.CompilePreference("not xml"); err == nil {
		t.Error("bad preference should fail to compile")
	}
	c, err := s.CompilePreference(appel.JanePreferenceXML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatchCompiled(c, "ghost"); err == nil {
		t.Error("unknown policy should fail")
	}
	if _, err := s.MatchCompiledURI(c, "/books/1"); err != nil {
		t.Errorf("URI path: %v", err)
	}
	// Without a catch-all, no rule may fire.
	noCatchAll := `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
	  <appel:RULE behavior="block"><POLICY><STATEMENT><PURPOSE appel:connective="or"><telemarketing/></PURPOSE></STATEMENT></POLICY></appel:RULE>
	</appel:RULESET>`
	c2, err := s.CompilePreference(noCatchAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatchCompiled(c2, "volga"); err == nil {
		t.Error("no-rule-fired should error")
	}
}

// TestCompiledHonorsMatchBudget: a compiled preference runs under the
// site's match budget exactly as a match on the SQL engine does — a
// budget too small for the preference aborts both, rather than letting
// the compiled path evaluate unmetered.
func TestCompiledHonorsMatchBudget(t *testing.T) {
	s, err := NewSiteWithOptions(Options{MatchBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	pol := workload.Generate(42).Policies[0]
	if err := s.InstallPolicy(pol); err != nil {
		t.Fatal(err)
	}
	pref, _ := workload.PreferenceByLevel("High")
	if _, err := s.MatchPolicy(pref.XML, pol.Name, EngineSQL); !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("SQL engine under budget 3: want ErrBudgetExceeded, got %v", err)
	}
	c, err := s.CompilePreference(pref.XML)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := s.MatchCompiled(c, pol.Name); !errors.Is(err, resource.ErrBudgetExceeded) {
		t.Fatalf("compiled match under budget 3: want ErrBudgetExceeded, got %+v, %v", d, err)
	}
}

func TestCompiledFasterThanFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	d := workload.Generate(42)
	// Disable both caches: with the conversion cache on, MatchPolicy
	// skips per-match conversion, and with the decision cache on, repeat
	// matches skip the engines entirely — either way the two paths tie
	// (see TestCachedDecisionsMatchUncached). This test pins the
	// *uncached* pipeline as the thing compilation beats.
	s, err := NewSiteWithOptions(Options{
		DisableConversionCache: true,
		DisableDecisionCache:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	pref, _ := workload.PreferenceByLevel("High")
	c, err := s.CompilePreference(pref.XML)
	if err != nil {
		t.Fatal(err)
	}
	var fullTotal, compiledTotal int64
	for round := 0; round < 5; round++ {
		for _, pol := range d.Policies {
			full, err := s.MatchPolicy(pref.XML, pol.Name, EngineSQL)
			if err != nil {
				t.Fatal(err)
			}
			fullTotal += int64(full.Convert + full.Query)
			comp, err := s.MatchCompiled(c, pol.Name)
			if err != nil {
				t.Fatal(err)
			}
			compiledTotal += int64(comp.Query)
		}
	}
	if compiledTotal >= fullTotal {
		t.Errorf("compiled (%d) should beat full pipeline (%d)", compiledTotal, fullTotal)
	}
}
