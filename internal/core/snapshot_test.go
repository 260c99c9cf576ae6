package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/p3p"
)

// The snapshot tests pin the refactor's two guarantees: writes are
// all-or-nothing (a failing install publishes nothing), and every read
// sees exactly one published snapshot even while writers churn.

// blockingPolicyXML declares telemarketing, which Jane's first rule
// blocks; benignPolicyXML declares only current, which falls through to
// her otherwise-request rule. Swapping one for the other under the same
// name flips the decision, making torn reads observable.
func blockingPolicyXML(name string) string { return variantPolicyXML(name, "<telemarketing/>") }
func benignPolicyXML(name string) string   { return variantPolicyXML(name, "") }

func variantPolicyXML(name, extraPurpose string) string {
	return fmt.Sprintf(`<POLICY xmlns="http://www.w3.org/2002/01/P3Pv1"
    name=%q discuri="http://%s.example.com/privacy.html">
  <ENTITY>
    <DATA-GROUP><DATA ref="#business.name">%s</DATA></DATA-GROUP>
  </ENTITY>
  <ACCESS><none/></ACCESS>
  <STATEMENT>
    <PURPOSE><current/>%s</PURPOSE>
    <RECIPIENT><ours/></RECIPIENT>
    <RETENTION><stated-purpose/></RETENTION>
    <DATA-GROUP><DATA ref="#user.name"/></DATA-GROUP>
  </STATEMENT>
</POLICY>`, name, name, name, extraPurpose)
}

func mustParseOne(t testing.TB, xml string) *p3p.Policy {
	t.Helper()
	pols, err := p3p.ParsePolicies(xml)
	if err != nil || len(pols) != 1 {
		t.Fatalf("parse: %v", err)
	}
	return pols[0]
}

func TestInstallPolicyXMLAllOrNothing(t *testing.T) {
	s := siteWithVolga(t)
	before := s.state.Load()
	beforeXML, err := s.PolicyXML("volga")
	if err != nil {
		t.Fatal(err)
	}

	// A POLICIES document whose first policy is fine and whose second
	// collides with the installed name: the whole document must be
	// rejected with nothing published.
	doc := `<POLICIES xmlns="http://www.w3.org/2002/01/P3Pv1">` +
		benignPolicyXML("fresh") + benignPolicyXML("volga") + `</POLICIES>`
	names, err := s.InstallPolicyXML(doc)
	if err == nil {
		t.Fatal("duplicate inside POLICIES doc must fail the install")
	}
	if names != nil {
		t.Errorf("failed install returned names %v", names)
	}

	// The failure published nothing: same snapshot pointer, so every
	// piece of state — policies, ids, databases — is untouched.
	if after := s.state.Load(); after != before {
		t.Error("failed install swapped the snapshot")
	}
	if got := s.PolicyNames(); len(got) != 1 || got[0] != "volga" {
		t.Errorf("policy names after failed install = %v", got)
	}
	if _, err := s.PolicyXML("fresh"); err == nil {
		t.Error("first policy of the failing document leaked in")
	}
	afterXML, err := s.PolicyXML("volga")
	if err != nil || afterXML != beforeXML {
		t.Errorf("volga document changed across failed install: %v", err)
	}
}

// TestApplyBatchNamesFailingMutation: a batch whose second edit fails
// publishes nothing and returns a *MutationError naming that edit, whose
// Err is exactly the error the edit alone returns.
func TestApplyBatchNamesFailingMutation(t *testing.T) {
	s := siteWithVolga(t)
	before := s.state.Load()
	alone := s.ApplyBatch([]Mutation{RemovePolicyMutation("ghost")})
	if alone == nil {
		t.Fatal("removing a missing policy succeeded")
	}
	pol, err := p3p.ParsePolicy(benignPolicyXML("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	err = s.ApplyBatch([]Mutation{InstallPolicyMutation(pol), RemovePolicyMutation("ghost"), RemovePolicyMutation("volga")})
	var me *MutationError
	if !errors.As(err, &me) || me.Index != 1 || me.Of != 3 || me.Err.Error() != alone.Error() {
		t.Fatalf("batch error %#v, want MutationError{1, 3, %v}", err, alone)
	}
	if want := "core: batch mutation 2 of 3: " + alone.Error(); err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
	if s.state.Load() != before {
		t.Fatal("failed batch swapped the snapshot")
	}
}

func TestRemoveInstallKeepsUnrelatedSnapshot(t *testing.T) {
	s := siteWithVolga(t)
	if _, err := s.InstallPolicyXML(benignPolicyXML("acme")); err != nil {
		t.Fatal(err)
	}
	// A failing remove must not publish either.
	before := s.state.Load()
	if err := s.RemovePolicy("ghost"); err == nil {
		t.Fatal("removing an uninstalled policy must fail")
	}
	if s.state.Load() != before {
		t.Error("failed remove swapped the snapshot")
	}
	// A successful remove publishes a state where only the removed
	// policy is gone.
	if err := s.RemovePolicy("acme"); err != nil {
		t.Fatal(err)
	}
	d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineSQL)
	if err != nil || d.Behavior != "request" {
		t.Errorf("volga after removing acme: %+v %v", d, err)
	}
}

// TestXTableCacheInvalidatesOnReinstall pins the policy-id staleness
// hazard: the XTABLE translation embeds the policy id, so a cached
// entry must not be served once the name maps to a different policy.
func TestXTableCacheInvalidatesOnReinstall(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	install := func(xml string) {
		t.Helper()
		if _, err := s.InstallPolicyXML(xml); err != nil {
			t.Fatal(err)
		}
	}
	match := func() string {
		t.Helper()
		d, err := s.MatchPolicy(appel.JanePreferenceXML, "acme", EngineXTable)
		if err != nil {
			t.Fatal(err)
		}
		return d.Behavior
	}
	install(blockingPolicyXML("acme"))
	if got := match(); got != "block" {
		t.Fatalf("blocking variant: %q", got)
	}
	// Re-install a different policy under the same name: the cached
	// translation (keyed by preference and policy name) now carries a
	// stale id and must be rebuilt, not served.
	if err := s.RemovePolicy("acme"); err != nil {
		t.Fatal(err)
	}
	install(benignPolicyXML("acme"))
	if got := match(); got != "request" {
		t.Fatalf("benign variant after reinstall: %q (stale cached translation?)", got)
	}
	if err := s.RemovePolicy("acme"); err != nil {
		t.Fatal(err)
	}
	install(blockingPolicyXML("acme"))
	if got := match(); got != "block" {
		t.Fatalf("blocking variant after second reinstall: %q", got)
	}
}

// TestMatchWhileReplacePolicies races matches against bulk policy-set
// swaps (run under -race): every decision must come from one published
// variant — block from the telemarketing set, request from the benign
// set — never an error, never a torn state.
func TestMatchWhileReplacePolicies(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	setA := []*p3p.Policy{
		mustParseOne(t, blockingPolicyXML("acme1")),
		mustParseOne(t, blockingPolicyXML("acme2")),
	}
	setB := []*p3p.Policy{
		mustParseOne(t, benignPolicyXML("acme1")),
		mustParseOne(t, benignPolicyXML("acme2")),
	}
	if err := s.ReplacePolicies(setA, nil); err != nil {
		t.Fatal(err)
	}

	swaps := 40
	readers := 4
	if testing.Short() {
		swaps, readers = 10, 2
	}
	var stop atomic.Bool
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < swaps; i++ {
			set := setA
			if i%2 == 0 {
				set = setB
			}
			if err := s.ReplacePolicies(set, nil); err != nil {
				errc <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		engine := Engines[r%len(Engines)]
		wg.Add(1)
		go func(engine Engine) {
			defer wg.Done()
			for !stop.Load() {
				d, err := s.MatchPolicy(appel.JanePreferenceXML, "acme1", engine)
				if err != nil {
					errc <- fmt.Errorf("%v: %w", engine, err)
					return
				}
				if d.Behavior != "block" && d.Behavior != "request" {
					errc <- fmt.Errorf("%v: impossible behavior %q", engine, d.Behavior)
					return
				}
			}
		}(engine)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMatchAllSeesOneSnapshot pins the batch guarantee: MatchAll loads
// the snapshot once, so even while a writer flips the whole policy set
// between the blocking and benign variants, a batch's decisions are all
// from one variant — two blocks or two requests, never one of each.
func TestMatchAllSeesOneSnapshot(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	setA := []*p3p.Policy{
		mustParseOne(t, blockingPolicyXML("acme1")),
		mustParseOne(t, blockingPolicyXML("acme2")),
	}
	setB := []*p3p.Policy{
		mustParseOne(t, benignPolicyXML("acme1")),
		mustParseOne(t, benignPolicyXML("acme2")),
	}
	if err := s.ReplacePolicies(setA, nil); err != nil {
		t.Fatal(err)
	}

	swaps := 30
	if testing.Short() {
		swaps = 8
	}
	var stop atomic.Bool
	errc := make(chan error, 2)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < swaps; i++ {
			set := setA
			if i%2 == 0 {
				set = setB
			}
			if err := s.ReplacePolicies(set, nil); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			ds, err := s.MatchAll(appel.JanePreferenceXML, EngineSQL)
			if err != nil {
				errc <- err
				return
			}
			if len(ds) != 2 {
				errc <- fmt.Errorf("matchall returned %d decisions, want 2", len(ds))
				return
			}
			if ds[0].Behavior != ds[1].Behavior {
				errc <- fmt.Errorf("torn batch: %s=%q, %s=%q — two snapshots in one MatchAll",
					ds[0].PolicyName, ds[0].Behavior, ds[1].PolicyName, ds[1].Behavior)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMatchWhileRemoveInstall races matches against remove/reinstall
// churn of a single name. A reader either matches a published variant or
// sees a clean "not installed" from the window between remove and
// reinstall — never a stale or torn decision.
func TestMatchWhileRemoveInstall(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	polA := mustParseOne(t, blockingPolicyXML("acme"))
	polB := mustParseOne(t, benignPolicyXML("acme"))
	if err := s.InstallPolicy(polA); err != nil {
		t.Fatal(err)
	}

	cycles := 30
	readers := 3
	if testing.Short() {
		cycles, readers = 8, 2
	}
	var stop atomic.Bool
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < cycles; i++ {
			if err := s.RemovePolicy("acme"); err != nil {
				errc <- err
				return
			}
			pol := polA
			if i%2 == 0 {
				pol = polB
			}
			if err := s.InstallPolicy(pol); err != nil {
				errc <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		engine := []Engine{EngineSQL, EngineXTable, EngineNative}[r%3]
		wg.Add(1)
		go func(engine Engine) {
			defer wg.Done()
			for !stop.Load() {
				d, err := s.MatchPolicy(appel.JanePreferenceXML, "acme", engine)
				if err != nil {
					if strings.Contains(err.Error(), "not installed") {
						continue // the snapshot between remove and reinstall
					}
					errc <- fmt.Errorf("%v: %w", engine, err)
					return
				}
				if d.Behavior != "block" && d.Behavior != "request" {
					errc <- fmt.Errorf("%v: impossible behavior %q", engine, d.Behavior)
					return
				}
			}
		}(engine)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestReplacePoliciesValidatesRefFile: a bulk replace whose reference
// file names an uninstalled policy must fail without publishing.
func TestReplacePoliciesValidatesRefFile(t *testing.T) {
	s := siteWithVolga(t)
	before := s.state.Load()
	rf := before.refFile
	if rf == nil {
		t.Fatal("fixture has no reference file")
	}
	pols := []*p3p.Policy{mustParseOne(t, benignPolicyXML("acme"))}
	// The volga reference file points at #volga, which the new set lacks.
	if err := s.ReplacePolicies(pols, rf); err == nil {
		t.Fatal("replace with dangling reference must fail")
	}
	if s.state.Load() != before {
		t.Error("failed replace swapped the snapshot")
	}
	if d, err := matchURI(s, appel.JanePreferenceXML, "/books/1", EngineSQL); err != nil || d.PolicyName != "volga" {
		t.Errorf("site changed after failed replace: %+v %v", d, err)
	}
}

func TestReplacePoliciesRejectsDuplicates(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	pols := []*p3p.Policy{
		mustParseOne(t, benignPolicyXML("acme")),
		mustParseOne(t, blockingPolicyXML("acme")),
	}
	if err := s.ReplacePolicies(pols, nil); err == nil {
		t.Fatal("duplicate names in one replace must fail")
	}
	if got := s.PolicyNames(); len(got) != 0 {
		t.Errorf("failed replace left policies %v", got)
	}
}
