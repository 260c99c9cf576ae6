package core

import (
	"errors"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/workload"
)

// corpusSite installs the full generated corpus, for batch tests.
func corpusSite(t testing.TB, opts Options) (*Site, *workload.Dataset) {
	t.Helper()
	d := workload.Generate(42)
	s, err := NewSiteWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InstallReferenceFile(d.RefFile); err != nil {
		t.Fatal(err)
	}
	return s, d
}

// TestInjectedFaultsSurfaceAsTypedErrors arms, per engine, a fault at the
// point that engine's evaluation flows through, and asserts the match
// fails with the typed injected error — never a decision built from
// partial evaluation.
func TestInjectedFaultsSurfaceAsTypedErrors(t *testing.T) {
	cases := []struct {
		engine Engine
		point  string
	}{
		{EngineNative, faultkit.PointAppelMatch},
		{EngineSQL, faultkit.PointRelDBQuery},
		{EngineXTable, faultkit.PointRelDBQuery},
		{EngineXQuery, faultkit.PointXQueryEval},
		// The conversion-cache fill precedes every engine's evaluation.
		{EngineNative, faultkit.PointConvFill},
		{EngineSQL, faultkit.PointConvFill},
		{EngineXTable, faultkit.PointConvFill},
		{EngineXQuery, faultkit.PointConvFill},
	}
	for _, c := range cases {
		t.Run(c.engine.ShortName()+"/"+c.point, func(t *testing.T) {
			t.Cleanup(faultkit.Reset)
			s := siteWithVolga(t) // build before arming: installs use reldb too
			if err := faultkit.Enable(c.point + ":error"); err != nil {
				t.Fatal(err)
			}
			d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", c.engine)
			if err == nil {
				t.Fatalf("fault at %s: got decision %+v, want error", c.point, d)
			}
			if !errors.Is(err, faultkit.ErrInjected) {
				t.Fatalf("fault at %s: error not typed ErrInjected: %v", c.point, err)
			}
			if d.Behavior != "" {
				t.Fatalf("fault at %s: partial decision alongside error: %+v", c.point, d)
			}

			// The fault disarmed, the same match must succeed — the Site
			// carries no residue from the failed attempt.
			faultkit.Reset()
			d, err = s.MatchPolicy(appel.JanePreferenceXML, "volga", c.engine)
			if err != nil || d.Behavior != "request" {
				t.Fatalf("after reset: %+v, %v", d, err)
			}
		})
	}
}

// TestMatchAllAggregatesFailures: a fault that fails some per-policy
// matches must not drop the decisions that succeeded, and the joined
// error must identify each failed policy.
func TestMatchAllAggregatesFailures(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	s, d := corpusSite(t, Options{})
	pref, _ := workload.PreferenceByLevel("High")

	// XTable converts once per policy, so the conversion-fill point is
	// hit exactly len(policies) times; times=3 makes exactly three
	// policies fail, whichever workers reach the point first.
	if err := faultkit.Enable(faultkit.PointConvFill + ":error:times=3"); err != nil {
		t.Fatal(err)
	}
	decisions, err := s.MatchAll(pref.XML, EngineXTable)
	if err == nil {
		t.Fatal("want aggregated error, got nil")
	}
	if !errors.Is(err, faultkit.ErrInjected) {
		t.Fatalf("aggregate not typed: %v", err)
	}
	want := len(d.Policies) - 3
	if len(decisions) != want {
		t.Fatalf("got %d decisions, want %d (failures must not drop successes)", len(decisions), want)
	}
	var perPolicy []*PolicyError
	for _, e := range unwrapJoined(err) {
		var pe *PolicyError
		if errors.As(e, &pe) {
			perPolicy = append(perPolicy, pe)
		}
	}
	if len(perPolicy) != 3 {
		t.Fatalf("want 3 PolicyErrors, got %d in %v", len(perPolicy), err)
	}
	failed := map[string]bool{}
	for _, pe := range perPolicy {
		failed[pe.Policy] = true
	}
	for _, dec := range decisions {
		if failed[dec.PolicyName] {
			t.Fatalf("policy %s reported both a decision and a failure", dec.PolicyName)
		}
	}

	// Disarmed, the full batch succeeds.
	faultkit.Reset()
	decisions, err = s.MatchAll(pref.XML, EngineXTable)
	if err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if len(decisions) != len(d.Policies) {
		t.Fatalf("after reset: %d decisions, want %d", len(decisions), len(d.Policies))
	}
}

func unwrapJoined(err error) []error {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		return joined.Unwrap()
	}
	return []error{err}
}

// TestFaultAfterIsDeterministic: after=N lets exactly N hits through, so
// a drill can target "the third statement of the match" repeatably.
func TestFaultAfterIsDeterministic(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	s := siteWithVolga(t)
	// Two preferences convert fine, the third fails.
	if err := faultkit.Enable(faultkit.PointConvFill + ":error:after=2"); err != nil {
		t.Fatal(err)
	}
	prefs := []string{
		appel.JanePreferenceXML,
		"<appel:RULESET xmlns:appel=\"http://www.w3.org/2002/01/APPELv1\" xmlns=\"http://www.w3.org/2002/01/P3Pv1\"><appel:OTHERWISE behavior=\"request\"/></appel:RULESET>",
		"<appel:RULESET xmlns:appel=\"http://www.w3.org/2002/01/APPELv1\" xmlns=\"http://www.w3.org/2002/01/P3Pv1\"><appel:OTHERWISE behavior=\"block\"/></appel:RULESET>",
	}
	for i, pref := range prefs {
		_, err := s.MatchPolicy(pref, "volga", EngineSQL)
		if i < 2 && err != nil {
			t.Fatalf("pref %d should pass: %v", i, err)
		}
		if i == 2 && !errors.Is(err, faultkit.ErrInjected) {
			t.Fatalf("pref 2 should hit the armed fault, got %v", err)
		}
	}
	if got := faultkit.Firings(faultkit.PointConvFill); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
}

// TestConvFillFiresOncePerFill: the fill point sits where a conversion-
// cache entry is made, not where an engine asks for one. A never-seen
// preference is therefore one hit however many consumers it has — the
// fast path of a check, the SQL engine the check falls back to, then the
// XQuery and native engines — and the only other fill is XTABLE's
// per-policy entry.
func TestConvFillFiresOncePerFill(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	s := siteWithVolga(t)
	pref := workload.PreferenceVariants("Medium", 1)[0].XML
	// One fill passes; the second one fails.
	if err := faultkit.Enable(faultkit.PointConvFill + ":error:after=1"); err != nil {
		t.Fatal(err)
	}
	res, err := checkPolicy(s, pref, "volga", EngineSQL)
	if err != nil || res.FastPath {
		t.Fatalf("check should fall back and succeed on the one allowed fill: %+v, %v", res, err)
	}
	for _, engine := range []Engine{EngineXQuery, EngineNative} {
		if _, err := s.MatchPolicy(pref, "volga", engine); err != nil {
			t.Fatalf("%v should reuse the preference's entry, got %v", engine, err)
		}
	}
	if got := faultkit.Firings(faultkit.PointConvFill); got != 0 {
		t.Fatalf("fault fired %d times before any second fill", got)
	}
	if _, err := s.MatchPolicy(pref, "volga", EngineXTable); !errors.Is(err, faultkit.ErrInjected) {
		t.Fatalf("XTABLE's per-policy entry is a second fill and should hit the fault, got %v", err)
	}
	if got := faultkit.Firings(faultkit.PointConvFill); got != 1 {
		t.Fatalf("fault fired %d times, want 1", got)
	}
}
