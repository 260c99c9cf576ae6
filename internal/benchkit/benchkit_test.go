package benchkit

import (
	"strings"
	"testing"
	"time"

	"p3pdb/internal/core"
)

// run executes one harness run for the whole test file.
var cached *Results

func results(t *testing.T) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	if cached == nil {
		r, err := Run(Config{Seed: 42, Repeats: 1})
		if err != nil {
			t.Fatal(err)
		}
		cached = r
	}
	return cached
}

func TestRunProducesFullMatrix(t *testing.T) {
	r := results(t)
	if len(r.ShredTimes) != 29 {
		t.Errorf("shred times = %d", len(r.ShredTimes))
	}
	// Native, SQL and XQuery-native cover all 5 levels x 29 policies.
	for _, e := range []core.Engine{core.EngineNative, core.EngineSQL, core.EngineXQuery} {
		if got := len(r.Samples[e]); got != 5*29 {
			t.Errorf("%v samples = %d, want 145", e, got)
		}
	}
	// XTable skips Medium.
	if got := len(r.Samples[core.EngineXTable]); got != 4*29 {
		t.Errorf("xtable samples = %d, want 116", got)
	}
	if !r.TooComplexLevels[core.EngineXTable]["Medium"] {
		t.Error("Medium should be recorded as too complex for XTable")
	}
}

// TestPaperShapeHolds asserts the qualitative findings of Section 6.3:
// SQL beats the native engine by a wide margin, XQuery lands in between,
// and the Medium XQuery cell is blank.
func TestPaperShapeHolds(t *testing.T) {
	r := results(t)
	native := r.TotalSummary(core.EngineNative).Avg
	sqlTotal := r.TotalSummary(core.EngineSQL).Avg
	xq := r.TotalSummary(core.EngineXTable).Avg

	if sqlTotal >= native {
		t.Errorf("SQL (%v) should beat the native engine (%v)", sqlTotal, native)
	}
	spTotal, spQuery := r.Speedup()
	if spTotal < 2 {
		t.Errorf("SQL total speedup = %.1fx; the paper's effect has vanished", spTotal)
	}
	if spQuery < spTotal {
		t.Errorf("query-only speedup (%.1fx) should exceed total speedup (%.1fx)", spQuery, spTotal)
	}
	if xq <= sqlTotal {
		t.Errorf("XQuery-via-XTABLE (%v) should be slower than optimized SQL (%v)", xq, sqlTotal)
	}
	if xq >= native {
		t.Errorf("XQuery-via-XTABLE (%v) should be faster than the native engine (%v)", xq, native)
	}
	// The Figure 21 blank cell.
	if _, _, _, ok := r.LevelSummary(core.EngineXTable, "Medium"); ok {
		t.Error("Medium via XTable should have no summary")
	}
	if _, _, _, ok := r.LevelSummary(core.EngineSQL, "Medium"); !ok {
		t.Error("Medium via SQL should have a summary")
	}
}

func TestRenderedTables(t *testing.T) {
	r := results(t)
	f19 := r.Figure19()
	for _, want := range []string{"Very High", "10", "Very Low", "Average"} {
		if !strings.Contains(f19, want) {
			t.Errorf("Figure19 missing %q:\n%s", want, f19)
		}
	}
	f20 := r.Figure20()
	for _, want := range []string{"APPEL Engine", "Convert", "Query", "Total", "XQuery", "speedup"} {
		if !strings.Contains(f20, want) {
			t.Errorf("Figure20 missing %q:\n%s", want, f20)
		}
	}
	f21 := r.Figure21()
	if !strings.Contains(f21, "Medium") {
		t.Errorf("Figure21 missing Medium:\n%s", f21)
	}
	// The blank cell renders as '-'.
	for _, line := range strings.Split(f21, "\n") {
		if strings.HasPrefix(line, "Medium") && !strings.Contains(line, "-") {
			t.Errorf("Medium row should have a blank XQuery cell: %s", line)
		}
	}
	report := r.Report()
	for _, want := range []string{"Figure 19", "Figure 20", "Figure 21", "Shredding", "Warm vs cold", "native XML store"} {
		if !strings.Contains(report, want) {
			t.Errorf("Report missing %q", want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if s.N != 3 || s.Min != time.Millisecond || s.Max != 3*time.Millisecond || s.Avg != 2*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
	if z := summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	a, err := RunAblations(42, "High")
	if err != nil {
		t.Fatal(err)
	}
	if a.AugmentationOn <= a.AugmentationOff {
		t.Errorf("augmentation should dominate native cost: on=%v off=%v",
			a.AugmentationOn, a.AugmentationOff)
	}
	if a.SchemaGeneric <= a.SchemaOptimized {
		t.Errorf("generic schema should be slower: generic=%v optimized=%v",
			a.SchemaGeneric, a.SchemaOptimized)
	}
	if a.SchemaGenericView <= a.SchemaGeneric {
		t.Errorf("view reconstruction (uncached) should add cost: view=%v direct=%v",
			a.SchemaGenericView, a.SchemaGeneric)
	}
	if a.SchemaGenericViewCached >= a.SchemaGenericView {
		t.Errorf("the materialized-view cache should recover view cost: cached=%v uncached=%v",
			a.SchemaGenericViewCached, a.SchemaGenericView)
	}
	if a.IndexOff <= a.IndexOn {
		t.Errorf("disabling indexes should cost: off=%v on=%v", a.IndexOff, a.IndexOn)
	}
	if a.ConvertCached >= a.ConvertEachTime {
		t.Errorf("prepared statements should be faster: cached=%v full=%v",
			a.ConvertCached, a.ConvertEachTime)
	}
	out := a.Render()
	for _, want := range []string{"augmentation", "schema", "indexes", "prepared"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
}

func TestSetup(t *testing.T) {
	site, d, err := Setup(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(site.PolicyNames()) != 29 || len(d.Policies) != 29 {
		t.Errorf("setup installed %d policies", len(site.PolicyNames()))
	}
	// Reference file resolution works end to end.
	name, err := site.PolicyForURI(d.URIFor(d.Policies[0].Name))
	if err != nil {
		t.Fatalf("PolicyForURI: %v", err)
	}
	if _, err := site.MatchPolicy(d.Preferences[4].XML, name, core.EngineSQL); err != nil {
		t.Errorf("MatchPolicy: %v", err)
	}
}
