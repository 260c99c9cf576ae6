package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/reldb"
)

// TestNoRuleFiredIsOneError: a ruleset without a catch-all that fires no
// rule reports appelengine.ErrNoRuleFired whichever engine evaluated it.
func TestNoRuleFiredIsOneError(t *testing.T) {
	s := siteWithVolga(t)
	noCatchAll := `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
	  <appel:RULE behavior="block"><POLICY><STATEMENT><PURPOSE appel:connective="or"><telemarketing/></PURPOSE></STATEMENT></POLICY></appel:RULE>
	</appel:RULESET>`
	matches := map[string]func() (Decision, error){}
	for _, e := range Engines {
		matches[e.ShortName()] = func() (Decision, error) { return s.MatchPolicy(noCatchAll, "volga", e) }
	}
	for name, match := range matches {
		if d, err := match(); !errors.Is(err, appelengine.ErrNoRuleFired) {
			t.Errorf("%s: want appelengine.ErrNoRuleFired, got %+v, %v", name, d, err)
		}
	}
}

// TestEvaluateMaskDropsFiringRule covers the mask where it matters. The
// preference index only ever masks rules that cannot fire, so pre-warm
// never exercises a mask that changes the outcome; here every rule in
// turn is switched off — including the one that fires — and every engine
// must reach the decision an exhaustive evaluation of the ruleset with
// that rule deleted reaches, with the rule index mapped back onto the
// full ruleset.
func TestEvaluateMaskDropsFiringRule(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	var policies []string
	for stem, xml := range readConformanceDir(t, "policies") {
		names, err := s.InstallPolicyXML(xml)
		if err != nil {
			t.Fatalf("install %s: %v", stem, err)
		}
		policies = append(policies, names...)
	}
	prefs := readConformanceDir(t, "preferences")
	prefs["jane"] = appel.JanePreferenceXML
	st := s.state.Load()
	ctx := context.Background()
	droppedFiring := 0
	for stem, prefXML := range prefs {
		conv, err := s.conversion(prefXML)
		if err != nil {
			t.Fatalf("%s: %v", stem, err)
		}
		rules := conv.rs.Rules
		for i := range rules {
			mask := make([]bool, len(rules))
			for j := range mask {
				mask[j] = j != i
			}
			deleted := &appel.Ruleset{Rules: slices.Delete(slices.Clone(rules), i, i+1)}
			for _, pol := range policies {
				if full, err := s.evaluate(ctx, st, conv, pol, EngineNative, nil, nil); err == nil && full.RuleIndex == i {
					droppedFiring++
				}
				dec, wantErr := s.native.MatchMeter(deleted, st.entries[pol].xml, nil)
				if wantErr != nil && !errors.Is(wantErr, appelengine.ErrNoRuleFired) {
					t.Fatalf("%s without rule %d vs %s: %v", stem, i, pol, wantErr)
				}
				var want Decision
				if wantErr == nil {
					idx := dec.RuleIndex
					if idx >= i {
						idx++
					}
					want = firedRule(rules[idx], idx, 0, 0)
				}
				for _, e := range Engines {
					got, err := s.evaluate(ctx, st, conv, pol, e, mask, nil)
					if e == EngineXTable && errors.Is(err, reldb.ErrTooComplex) {
						continue
					}
					if wantErr != nil {
						if !errors.Is(err, appelengine.ErrNoRuleFired) {
							t.Errorf("%s without rule %d vs %s [%s]: want no rule fired, got %+v, %v",
								stem, i, pol, e.ShortName(), got, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s without rule %d vs %s [%s]: %v", stem, i, pol, e.ShortName(), err)
						continue
					}
					got.Convert, got.Query = 0, 0
					if got != want {
						t.Errorf("%s without rule %d vs %s [%s]: got %+v, want %+v",
							stem, i, pol, e.ShortName(), got, want)
					}
				}
			}
		}
	}
	if droppedFiring == 0 {
		t.Fatal("no mask switched off a firing rule; the corpus does not exercise the remap")
	}
}
