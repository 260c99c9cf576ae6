package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/compact"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/reldb"
	"p3pdb/internal/workload"
)

// checkPolicy runs the protocol loop against a named policy: what
// CheckURI and CheckCookie do once the reference file has named it.
func checkPolicy(s *Site, prefXML, policyName string, engine Engine) (CheckResult, error) {
	return s.check(context.Background(), s.state.Load(), prefXML, policyName, engine)
}

// checkCorpus builds the conservatism corpus: every conformance policy
// plus the full generated workload set on one site, and every
// conformance preference plus the five JRC levels.
func checkCorpus(t *testing.T) (*Site, []string, map[string]string) {
	t.Helper()
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	var policyNames []string
	for stem, xml := range readConformanceDir(t, "policies") {
		names, err := s.InstallPolicyXML(xml)
		if err != nil {
			t.Fatalf("install %s: %v", stem, err)
		}
		policyNames = append(policyNames, names...)
	}
	d := workload.Generate(7)
	for _, pol := range d.Policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatalf("install workload policy %s: %v", pol.Name, err)
		}
		policyNames = append(policyNames, pol.Name)
	}
	prefs := readConformanceDir(t, "preferences")
	for _, p := range d.Preferences {
		prefs["jrc-"+strings.ReplaceAll(strings.ToLower(p.Level), " ", "-")] = p.XML
	}
	return s, policyNames, prefs
}

// TestCheckConservatism is the fast path's safety gate: across the
// conformance corpus, the generated workload policies, and every
// preference (conformance edge cases plus all five JRC levels), a
// fast-path "allow" must never contradict any of the four full engines —
// none may block where the summary claimed safety. Where the fallback
// ran instead, its verdict must equal the full decision's.
func TestCheckConservatism(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential in -short mode")
	}
	s, policyNames, prefs := checkCorpus(t)
	fastPaths := 0
	for prefStem, prefXML := range prefs {
		for _, polName := range policyNames {
			res, err := checkPolicy(s, prefXML, polName, EngineSQL)
			if err != nil {
				// The check surfaces the full engine's errors (a
				// preference with no catch-all, for example); it must
				// never have claimed a fast-path allow first.
				continue
			}
			if !res.FastPath {
				if res.Decision == nil {
					t.Errorf("%s/%s: fallback without a decision", prefStem, polName)
				} else if res.Allowed == res.Decision.Blocked() {
					t.Errorf("%s/%s: allowed=%v contradicts decision %q",
						prefStem, polName, res.Allowed, res.Decision.Behavior)
				}
				continue
			}
			fastPaths++
			if !res.Allowed {
				t.Errorf("%s/%s: fast path produced a deny; it may only prove allows", prefStem, polName)
			}
			for _, engine := range Engines {
				got, err := s.MatchPolicy(prefXML, polName, engine)
				if err != nil {
					if engine == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
						continue
					}
					t.Errorf("%s/%s: %v after fast allow: %v", prefStem, polName, engine, err)
					continue
				}
				if got.Blocked() {
					t.Errorf("%s/%s: fast path allowed but %v blocks (rule %d %q)",
						prefStem, polName, engine, got.RuleIndex, got.RuleDescription)
				}
			}
		}
	}
	if fastPaths == 0 {
		t.Fatal("no pair took the fast path; the corpus no longer exercises it")
	}
}

// TestCheckFastPathByLevel pins which JRC levels are fast-path eligible:
// the monotone levels (Very Low, Low, High) may short-circuit, while
// Medium (exact connectives) and Very High (specific data refs) must
// always fall back as unsafe preferences.
func TestCheckFastPathByLevel(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(11)
	if err := s.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	eligible := map[string]bool{"Very Low": true, "Low": true, "High": true}
	for _, p := range d.Preferences {
		sawFast := false
		for _, pol := range d.Policies {
			res, err := s.CheckURI(p.XML, d.URIFor(pol.Name), EngineSQL)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Level, pol.Name, err)
			}
			if res.FastPath {
				sawFast = true
			} else if !eligible[p.Level] && res.FallbackReason != "unsafe-preference" {
				t.Errorf("%s/%s: want unsafe-preference fallback, got %q",
					p.Level, pol.Name, res.FallbackReason)
			}
			if res.CP == "" {
				t.Errorf("%s/%s: check carried no compact policy", p.Level, pol.Name)
			}
		}
		if eligible[p.Level] && !sawFast {
			t.Errorf("%s: no policy took the fast path", p.Level)
		}
		if !eligible[p.Level] && sawFast {
			t.Errorf("%s: took the fast path despite unsafe rules", p.Level)
		}
	}
	// Very Low has no block rules at all: every check must short-circuit.
	vl, _ := workload.PreferenceByLevel("Very Low")
	for _, pol := range d.Policies {
		res, err := s.CheckURI(vl.XML, d.URIFor(pol.Name), EngineSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FastPath || !res.Allowed {
			t.Errorf("Very Low on %s: want fast allow, got %+v", pol.Name, res)
		}
	}
}

// TestCheckCookiePath drives the cookie half of the loop through the
// workload reference file's cookie patterns.
func TestCheckCookiePath(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(3)
	if err := s.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	pol := d.Policies[0].Name
	pref, _ := workload.PreferenceByLevel("Very Low")
	res, err := s.CheckCookie(pref.XML, d.CookieFor(pol), EngineSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != pol || !res.FastPath {
		t.Errorf("cookie check: %+v", res)
	}
	if _, err := s.CheckCookie(pref.XML, "unmatched-cookie", EngineSQL); err == nil {
		t.Error("unmatched cookie name: want resolution error")
	}
}

// TestCheckForcedFallback is the fast-path outage drill: with the
// fastpath.summary fault armed, every check must fall back to the full
// engine and still agree with it — the conservatism obligation survives
// a broken summary layer.
func TestCheckForcedFallback(t *testing.T) {
	faultkit.Reset()
	t.Cleanup(faultkit.Reset)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(5)
	if err := s.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	if err := faultkit.Enable(faultkit.PointFastpathSummary + ":error"); err != nil {
		t.Fatal(err)
	}
	pref, _ := workload.PreferenceByLevel("Very Low")
	for _, pol := range d.Policies[:5] {
		res, err := s.CheckURI(pref.XML, d.URIFor(pol.Name), EngineSQL)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if res.FastPath {
			t.Errorf("%s: fast path taken under an armed fastpath.summary fault", pol.Name)
		}
		if res.FallbackReason != "forced" {
			t.Errorf("%s: fallback reason %q, want forced", pol.Name, res.FallbackReason)
		}
		full, err := matchURI(s, pref.XML, d.URIFor(pol.Name), EngineSQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Allowed == full.Blocked() {
			t.Errorf("%s: forced fallback disagrees with full match", pol.Name)
		}
	}
	if faultkit.Firings(faultkit.PointFastpathSummary) == 0 {
		t.Error("fault never fired")
	}
}

// TestCompactPolicyPrecomputed asserts the CP form rides the snapshot:
// available immediately after install, gone after removal, and refreshed
// by replacement.
func TestCompactPolicyPrecomputed(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(9)
	pol := d.Policies[0]
	if err := s.InstallPolicy(pol); err != nil {
		t.Fatal(err)
	}
	cp, err := s.CompactPolicy(pol.Name)
	if err != nil || cp == "" {
		t.Fatalf("CompactPolicy: %q, %v", cp, err)
	}
	if _, err := compact.Parse(cp); err != nil {
		t.Fatalf("CP form does not re-parse: %v", err)
	}
	if err := s.RemovePolicy(pol.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactPolicy(pol.Name); err == nil {
		t.Error("CompactPolicy after removal: want error")
	}
}

// TestSummarySafeFragment pins the analyzer's fence posts on the shapes
// the JRC levels and the conformance corpus rely on.
func TestSummarySafeFragment(t *testing.T) {
	parse := func(t *testing.T, xml string) *appel.Ruleset {
		t.Helper()
		rs, err := appel.Parse(xml)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	const head = `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1" xmlns="http://www.w3.org/2002/01/P3Pv1">`
	const otherwise = `<appel:OTHERWISE behavior="request"/></appel:RULESET>`
	for _, tc := range []struct {
		name string
		xml  string
		want bool
	}{
		{"otherwise only", head + otherwise, true},
		{"safe or-connective", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT><RECIPIENT appel:connective="or"><unrelated/><public/></RECIPIENT></STATEMENT></POLICY></appel:RULE>` +
			otherwise, true},
		{"wildcard data ref", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT><DATA-GROUP><DATA ref="*"><CATEGORIES appel:connective="or"><health/></CATEGORIES></DATA></DATA-GROUP></STATEMENT></POLICY></appel:RULE>` +
			otherwise, true},
		{"no catch-all", head +
			`<appel:RULE behavior="block"><POLICY/></appel:RULE></appel:RULESET>`, false},
		{"exact connective", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT><PURPOSE appel:connective="or-exact"><current/></PURPOSE></STATEMENT></POLICY></appel:RULE>` +
			otherwise, false},
		{"negated connective", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT appel:connective="non-or"><PURPOSE/></STATEMENT></POLICY></appel:RULE>` +
			otherwise, false},
		{"specific data ref", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT><DATA-GROUP><DATA ref="#user.bdate"/></DATA-GROUP></STATEMENT></POLICY></appel:RULE>` +
			otherwise, false},
		{"opt-in required pattern", head +
			`<appel:RULE behavior="block"><POLICY><STATEMENT><PURPOSE><contact required="opt-in"/></PURPOSE></STATEMENT></POLICY></appel:RULE>` +
			otherwise, false},
		{"non-vocabulary element", head +
			`<appel:RULE behavior="block"><POLICY><ENTITY/></POLICY></appel:RULE>` +
			otherwise, false},
		{"unsafe shapes allowed outside block rules", head +
			`<appel:RULE behavior="request"><POLICY><STATEMENT><PURPOSE appel:connective="or-exact"><current/></PURPOSE></STATEMENT></POLICY></appel:RULE>` +
			otherwise, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compact.SummarySafe(parse(t, tc.xml)); got != tc.want {
				t.Errorf("SummarySafe = %v, want %v", got, tc.want)
			}
		})
	}
	// The JRC levels: monotone levels safe, Medium/Very High not.
	for level, want := range map[string]bool{
		"Very Low": true, "Low": true, "High": true,
		"Medium": false, "Very High": false,
	} {
		p, ok := workload.PreferenceByLevel(level)
		if !ok {
			t.Fatalf("unknown level %s", level)
		}
		if got := compact.SummarySafe(p.Ruleset); got != want {
			t.Errorf("SummarySafe(%s) = %v, want %v", level, got, want)
		}
	}
}
