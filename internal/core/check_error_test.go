package core

import (
	"strings"
	"testing"

	"p3pdb/internal/workload"
)

// TestCheckErrorPaths pins the protocol loop's failure surface: targets
// the reference file cannot resolve, unknown policies, and preferences
// the fallback engine rejects all error instead of fabricating verdicts.
func TestCheckErrorPaths(t *testing.T) {
	site, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	d := workload.Generate(17)
	if err := site.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	pref, ok := workload.PreferenceByLevel("Low")
	if !ok {
		t.Fatal("no Low preference")
	}

	if _, err := site.CheckURI(pref.XML, "/no-such-site/index.html", EngineSQL); err == nil {
		t.Error("unresolvable URI: want error")
	}
	if _, err := site.MatchPolicy(pref.XML, "ghost-industries", EngineSQL); err == nil {
		t.Error("unknown policy: want error")
	}
	// A preference that fails conversion takes the "preference-error"
	// fallback, and the full engine must surface the same failure.
	pol := d.Policies[0].Name
	if _, err := checkPolicy(site, "<appel:RULESET", pol, EngineSQL); err == nil {
		t.Error("malformed preference: want error from the fallback engine")
	}
	// A preference with no catch-all can leave full matching with no
	// fired rule; the check must propagate that, never invent an allow.
	noOtherwise := `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1"
	    xmlns="http://www.w3.org/2002/01/P3Pv1">
	  <appel:RULE behavior="block"><POLICY><STATEMENT>
	    <PURPOSE appel:connective="or"><telemarketing/></PURPOSE>
	  </STATEMENT></POLICY></appel:RULE>
	</appel:RULESET>`
	allErrored := true
	for _, p := range d.Policies {
		res, err := checkPolicy(site, noOtherwise, p.Name, EngineSQL)
		if err != nil {
			if !strings.Contains(err.Error(), "no rule fired") {
				t.Fatalf("%s: unexpected error %v", p.Name, err)
			}
			continue
		}
		allErrored = false
		// When a rule did fire it can only be the block rule.
		if res.FastPath || res.Allowed {
			t.Errorf("%s: catch-all-free preference produced an allow: %+v", p.Name, res)
		}
	}
	if allErrored {
		t.Error("no policy triggered the telemarketing block; corpus too tame for the test")
	}
}
