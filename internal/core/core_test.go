package core

import (
	"errors"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/p3p"
	"p3pdb/internal/reldb"
	"p3pdb/internal/workload"
)

func siteWithVolga(t testing.TB) *Site {
	t.Helper()
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPolicyXML(p3p.VolgaPolicyXML); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallReferenceFileXML(`<META xmlns="http://www.w3.org/2002/01/P3Pv1">
	  <POLICY-REFERENCES>
	    <POLICY-REF about="/P3P/Policies.xml#volga"><INCLUDE>/*</INCLUDE></POLICY-REF>
	  </POLICY-REFERENCES></META>`); err != nil {
		t.Fatal(err)
	}
	return s
}

// matchURI is the Figure 6 step: the reference file names the policy
// covering a URI, and the engine matches the preference against it.
func matchURI(s *Site, prefXML, uri string, engine Engine) (Decision, error) {
	name, err := s.PolicyForURI(uri)
	if err != nil {
		return Decision{}, err
	}
	return s.MatchPolicy(prefXML, name, engine)
}

func TestInstallAndNames(t *testing.T) {
	s := siteWithVolga(t)
	names := s.PolicyNames()
	if len(names) != 1 || names[0] != "volga" {
		t.Errorf("names = %v", names)
	}
	xml, err := s.PolicyXML("volga")
	if err != nil || !strings.Contains(xml, "POLICY") {
		t.Errorf("PolicyXML: %v", err)
	}
	if _, err := s.PolicyXML("nope"); err == nil {
		t.Error("missing policy should error")
	}
	if _, err := s.InstallPolicyXML(p3p.VolgaPolicyXML); err == nil {
		t.Error("duplicate install should error")
	}
}

func TestMatchAllEnginesAgreeOnPaperExample(t *testing.T) {
	s := siteWithVolga(t)
	for _, engine := range Engines {
		d, err := matchURI(s, appel.JanePreferenceXML, "/books/1", engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if d.Behavior != "request" || d.RuleIndex != 2 {
			t.Errorf("%v: %+v, want request via rule 3", engine, d)
		}
		if d.PolicyName != "volga" {
			t.Errorf("%v: policy %q", engine, d.PolicyName)
		}
		if d.Query <= 0 {
			t.Errorf("%v: query time not measured", engine)
		}
		if engine != EngineNative && d.Convert <= 0 {
			t.Errorf("%v: convert time not measured", engine)
		}
		if engine == EngineNative && d.Convert != 0 {
			t.Errorf("native engine has no conversion step: %v", d.Convert)
		}
	}
}

func TestMatchPolicyDirect(t *testing.T) {
	s := siteWithVolga(t)
	d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineSQL)
	if err != nil || d.Behavior != "request" {
		t.Errorf("direct match: %+v %v", d, err)
	}
	if _, err := s.MatchPolicy(appel.JanePreferenceXML, "missing", EngineSQL); err == nil {
		t.Error("missing policy should error")
	}
}

func TestMatchURIErrors(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matchURI(s, appel.JanePreferenceXML, "/x", EngineSQL); err == nil {
		t.Error("no reference file should error")
	}
	if _, err := s.InstallPolicyXML(p3p.VolgaPolicyXML); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallReferenceFileXML(`<META><POLICY-REFERENCES>
		<POLICY-REF about="#volga"><INCLUDE>/covered/*</INCLUDE></POLICY-REF>
	  </POLICY-REFERENCES></META>`); err != nil {
		t.Fatal(err)
	}
	if _, err := matchURI(s, appel.JanePreferenceXML, "/uncovered", EngineSQL); err == nil {
		t.Error("uncovered URI should error")
	}
	if _, err := matchURI(s, "not xml", "/covered/x", EngineSQL); err == nil {
		t.Error("bad preference should error")
	}
}

func TestReferenceFileRejectsUnknownPolicy(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	err = s.InstallReferenceFileXML(`<META><POLICY-REFERENCES>
		<POLICY-REF about="#ghost"><INCLUDE>/*</INCLUDE></POLICY-REF>
	  </POLICY-REFERENCES></META>`)
	if err == nil {
		t.Error("reference to uninstalled policy should fail")
	}
}

func TestRemovePolicyAndVersioning(t *testing.T) {
	s := siteWithVolga(t)
	if err := s.RemovePolicy("volga"); err != nil {
		t.Fatal(err)
	}
	if len(s.PolicyNames()) != 0 {
		t.Error("policy still listed")
	}
	// Install version 2 with a stricter statement; matching reflects it.
	v2 := strings.Replace(p3p.VolgaPolicyXML,
		`<RECIPIENT><ours/><same/></RECIPIENT>`, `<RECIPIENT><ours/><unrelated/></RECIPIENT>`, 1)
	if _, err := s.InstallPolicyXML(v2); err != nil {
		t.Fatal(err)
	}
	for _, engine := range Engines {
		d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if d.Behavior != "block" {
			t.Errorf("%v: v2 should block, got %+v", engine, d)
		}
	}
	if err := s.RemovePolicy("volga"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemovePolicy("volga"); err == nil {
		t.Error("double remove should error")
	}
}

func TestAnalytics(t *testing.T) {
	s := siteWithVolga(t)
	strict := `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
	  <appel:RULE behavior="block" description="no email recommendations">
	    <POLICY><STATEMENT><PURPOSE appel:connective="or"><contact required="*"/></PURPOSE></STATEMENT></POLICY>
	  </appel:RULE>
	  <appel:OTHERWISE behavior="request"/>
	</appel:RULESET>`
	for i := 0; i < 3; i++ {
		if _, err := s.MatchPolicy(strict, "volga", EngineSQL); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineSQL); err != nil {
		t.Fatal(err)
	}
	stats := s.Analytics()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].PolicyName != "volga" || stats[0].Count != 3 ||
		stats[0].RuleDescription != "no email recommendations" {
		t.Errorf("stats[0] = %+v", stats[0])
	}
	s.ResetAnalytics()
	if len(s.Analytics()) != 0 {
		t.Error("reset did not clear analytics")
	}
}

// TestFourEngineDifferential is the repository's strongest correctness
// instrument: every preference level of the generated workload, matched
// against every generated policy, must produce the same decision on all
// four engines — except the Medium/XTable combination, which must fail
// with the engine's complexity error (the Figure 21 blank cell).
func TestFourEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	d := workload.Generate(42)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	for _, pref := range d.Preferences {
		for _, pol := range d.Policies {
			base, err := s.MatchPolicy(pref.XML, pol.Name, EngineNative)
			if err != nil {
				t.Fatalf("native %s vs %s: %v", pref.Level, pol.Name, err)
			}
			for _, engine := range []Engine{EngineSQL, EngineXTable, EngineXQuery} {
				got, err := s.MatchPolicy(pref.XML, pol.Name, engine)
				if engine == EngineXTable && pref.Level == "Medium" {
					if err == nil {
						t.Fatalf("Medium via XTable should be too complex, got %+v", got)
					}
					if !errors.Is(err, reldb.ErrTooComplex) {
						t.Fatalf("Medium via XTable: expected ErrTooComplex, got %v", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v %s vs %s: %v", engine, pref.Level, pol.Name, err)
				}
				if got.Behavior != base.Behavior || got.RuleIndex != base.RuleIndex {
					t.Errorf("%v disagrees with native on %s vs %s: %s/%d vs %s/%d",
						engine, pref.Level, pol.Name,
						got.Behavior, got.RuleIndex, base.Behavior, base.RuleIndex)
				}
			}
		}
	}
}
