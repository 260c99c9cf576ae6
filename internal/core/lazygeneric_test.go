package core

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/workload"
)

// The generic-schema store is read only by the XTABLE engine, so each
// policy's partition of it is built on that policy's first XTABLE use,
// never at publish, and carried to every later snapshot that holds the
// policy under the same id; and a publish that changes no policy, id or
// reference file rebuilds nothing. These tests count both through obs
// counters (core.generic.builds, core.materialize.fragments), so they
// must not run beside other tests of this package that publish or match
// XTABLE — none use t.Parallel.

var (
	genericBuilds = obs.GetCounter("core.generic.builds")
	optFragments  = obs.GetCounter("core.materialize.fragments")
)

// TestSnapshotGenericBuildCounts: twenty install/remove cycles on a site
// that serves only SQL — a SQL-registered preference pre-warming on each
// publish included — perform no generic build; one XTABLE match then
// performs exactly one, and later matches of that policy none, on this
// generation or any later one that keeps the policy.
func TestSnapshotGenericBuildCounts(t *testing.T) {
	s := siteWithVolga(t)
	if err := s.RegisterPreferenceXML("jane", appel.JanePreferenceXML, []string{"sql"}); err != nil {
		t.Fatal(err)
	}
	before := genericBuilds.Value()
	cycle := func() {
		for i := 0; i < 20; i++ {
			if _, err := s.InstallPolicyXML(benignPolicyXML("churn")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MatchPolicy(appel.JanePreferenceXML, "churn", EngineSQL); err != nil {
				t.Fatal(err)
			}
			if err := s.RemovePolicy("churn"); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := genericBuilds.Value() - before; n != 0 {
		t.Fatalf("SQL-only writes built the generic schema %d times, want 0", n)
	}
	for i := 0; i < 3; i++ {
		if i == 2 {
			cycle()
		}
		d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineXTable)
		if err != nil || d.Behavior != "request" {
			t.Fatalf("xtable match %d: %+v, %v", i, d, err)
		}
		if n := genericBuilds.Value() - before; n != 1 {
			t.Fatalf("after xtable match %d: %d generic builds, want 1", i, n)
		}
	}
}

// TestSnapshotGenericBuildOnceUnderConcurrentFirstUse: eight goroutines
// making the first XTABLE match of one policy build its partition once.
func TestSnapshotGenericBuildOnceUnderConcurrentFirstUse(t *testing.T) {
	s, d := corpusSite(t, Options{DisableDecisionCache: true})
	pref, _ := workload.PreferenceByLevel("High")
	before := genericBuilds.Value()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.MatchPolicy(pref.XML, d.Policies[0].Name, EngineXTable); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := genericBuilds.Value() - before; n != 1 {
		t.Fatalf("concurrent first use: %d generic builds, want 1", n)
	}
}

// TestGenericBuildFaultIsRetried: a build that fails is not remembered —
// the generation's next XTABLE use builds it afresh and succeeds.
func TestGenericBuildFaultIsRetried(t *testing.T) {
	t.Cleanup(faultkit.Reset)
	s := siteWithVolga(t)
	before := genericBuilds.Value()
	if err := faultkit.Enable(faultkit.PointRelDBQuery + ":error:times=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineXTable); !errors.Is(err, faultkit.ErrInjected) {
		t.Fatalf("armed build: %v, want ErrInjected", err)
	}
	if n := genericBuilds.Value() - before; n != 0 {
		t.Fatalf("failed build counted: %d", n)
	}
	d, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", EngineXTable)
	if err != nil || d.Behavior != "request" {
		t.Fatalf("retry: %+v, %v", d, err)
	}
	if n := genericBuilds.Value() - before; n != 1 {
		t.Fatalf("retry: %d generic builds, want 1", n)
	}
}

// TestRegistrationReusesSnapshotBackends: a preference registration
// changes no policy, so its snapshot shares every backend of the one
// before it and installs no fragment; every engine decides exactly as
// before. A reference-file write keeps the optimized store (the
// reference file is not mirrored into it) and a policy install adds one
// generic partition; neither rebuilds the others.
func TestRegistrationReusesSnapshotBackends(t *testing.T) {
	d := workload.Generate(42)
	s, err := NewSiteWithOptions(Options{DisableDecisionCache: true})
	if err != nil {
		t.Fatal(err)
	}
	frags := optFragments.Value()
	if err := s.ReplacePolicies(d.Policies, d.RefFile); err != nil {
		t.Fatal(err)
	}
	decide := func() string {
		out := ""
		for _, pref := range d.Preferences {
			for _, pol := range d.Policies {
				for _, e := range Engines {
					dec, err := s.MatchPolicy(pref.XML, pol.Name, e)
					out += fmt.Sprintf("%s|%s|%d|%+v|%v\n", pref.Level, pol.Name, e, dec.outcome(), err)
				}
			}
		}
		return out
	}
	builds := genericBuilds.Value()
	want := decide()
	if n := genericBuilds.Value() - builds; n != int64(len(d.Policies)) {
		t.Fatalf("XTABLE over %d policies: %d generic builds", len(d.Policies), n)
	}
	sameGeneric := func(a, b *siteState) bool {
		for _, pol := range d.Policies {
			if &a.entries[pol.Name].generic != &b.entries[pol.Name].generic {
				return false
			}
		}
		return true
	}
	prev := s.state.Load()
	for i := 0; i < 50; i++ {
		pref := d.Preferences[i%len(d.Preferences)]
		if err := s.RegisterPreferenceXML(fmt.Sprintf("p%d", i), pref.XML, []string{"sql", "xtable"}); err != nil {
			t.Fatal(err)
		}
	}
	next := s.state.Load()
	if next.gen == prev.gen {
		t.Fatal("registration published no new generation")
	}
	if next.optDB != prev.optDB || !maps.Equal(next.entries, prev.entries) || !sameGeneric(prev, next) {
		t.Fatal("registration rebuilt backends it did not change")
	}
	if n := optFragments.Value() - frags; n != int64(len(d.Policies)) {
		t.Fatalf("%d policies + 50 registrations installed %d fragments, want %d", len(d.Policies), n, len(d.Policies))
	}
	if got := decide(); got != want {
		t.Fatalf("decisions changed across registration:\nbefore:\n%s\nafter:\n%s", want, got)
	}

	rf := *d.RefFile
	if err := s.InstallReferenceFile(&rf); err != nil {
		t.Fatal(err)
	}
	ref := s.state.Load()
	if ref.optDB != next.optDB || !sameGeneric(ref, next) {
		t.Fatal("reference-file write: want the same optimized store and the same generic partitions")
	}
	builds = genericBuilds.Value()
	if err := s.InstallPolicy(mustParseOne(t, benignPolicyXML("extra"))); err != nil {
		t.Fatal(err)
	}
	if !sameGeneric(ref, s.state.Load()) {
		t.Fatal("policy install rebuilt other policies' generic partitions")
	}
	if _, err := s.MatchAll(appel.JanePreferenceXML, EngineXTable); err != nil {
		t.Fatal(err)
	}
	if n := genericBuilds.Value() - builds; n != 1 {
		t.Fatalf("one install then XTABLE over every policy: %d generic builds, want 1", n)
	}
}

// TestSnapshotEntryReuseCounts: a reference-file-only write installs no
// fragment and shares the optimized store and every entry; a one-policy
// install or remove keeps every other policy's entry, though it still
// installs one fragment per installed policy into a fresh store.
func TestSnapshotEntryReuseCounts(t *testing.T) {
	s, d := corpusSite(t, Options{})
	prev := s.state.Load()
	frags := optFragments.Value()
	rf := *d.RefFile
	if err := s.InstallReferenceFile(&rf); err != nil {
		t.Fatal(err)
	}
	next := s.state.Load()
	if n := optFragments.Value() - frags; n != 0 {
		t.Fatalf("reference-file write installed %d fragments, want 0", n)
	}
	if next.optDB != prev.optDB || !maps.Equal(next.entries, prev.entries) {
		t.Fatal("reference-file write rebuilt the optimized store or an entry")
	}
	keptOthers := func(a, b *siteState, except string) {
		t.Helper()
		for _, pol := range d.Policies {
			if pol.Name != except && a.entries[pol.Name] != b.entries[pol.Name] {
				t.Fatalf("write of %q rebuilt %q's entry", except, pol.Name)
			}
		}
	}
	frags = optFragments.Value()
	extra := mustParseOne(t, benignPolicyXML("extra"))
	if err := s.InstallPolicy(extra); err != nil {
		t.Fatal(err)
	}
	installed := s.state.Load()
	if n := optFragments.Value() - frags; n != int64(len(d.Policies)+1) {
		t.Fatalf("one install over %d policies installed %d fragments, want %d", len(d.Policies), n, len(d.Policies)+1)
	}
	if installed.optDB == next.optDB || installed.entries["extra"] == nil {
		t.Fatal("install published no new optimized store or no entry")
	}
	keptOthers(next, installed, "extra")
	victim := d.Policies[3].Name
	if err := s.RemovePolicy(victim); err != nil {
		t.Fatal(err)
	}
	removed := s.state.Load()
	if removed.entries[victim] != nil {
		t.Fatalf("%q still has an entry after its removal", victim)
	}
	keptOthers(installed, removed, victim)
	if removed.entries["extra"] != installed.entries["extra"] {
		t.Fatal("remove rebuilt the entry installed before it")
	}
}
