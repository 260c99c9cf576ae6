package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/p3p"
	"p3pdb/internal/workload"
)

// The twin test holds a snapshot's reuse of per-policy work to what a
// rebuild from scratch would answer: seeded sequences of writes run on
// one site, and after every step a fresh site restored from the live
// site's export must decide every (preference, policy, engine) the same
// way and export the same state. Anything a write carries over from the
// snapshot before it — a shred fragment, a generic partition, a shared
// backend, a pre-warmed decision — that no longer fits the new content
// shows up here as a decision the twin does not reach.

// twinPolicy is "flip": the same name in two texts that Jane decides
// differently, so a write that swaps one for the other changes answers.
const twinPolicy = "flip"

type twinRun struct {
	t     *testing.T
	rng   *rand.Rand
	live  *Site
	pool  []*p3p.Policy          // corpus policies the steps install
	held  map[string]*p3p.Policy // what the live site holds, by name
	prefs []string               // preference documents decided each step
	flips int                    // flip installs so far; odd → blocking
}

func TestSnapshotTwinAgreesWithRestoredSite(t *testing.T) {
	d := workload.Generate(42)
	prefs := []string{appel.JanePreferenceXML}
	for _, level := range []string{"High", "Low"} {
		p, ok := workload.PreferenceByLevel(level)
		if !ok {
			t.Fatalf("no %s preference", level)
		}
		prefs = append(prefs, p.XML)
	}
	// With the decision cache on, a carried decision answers before any
	// engine runs; with it off, every answer comes from the snapshot's
	// backends. Each run shows a different kind of stale reuse.
	for _, opts := range []Options{{}, {DisableDecisionCache: true}} {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("seed%d/decisioncache=%t", seed, !opts.DisableDecisionCache)
			t.Run(name, func(t *testing.T) { twinSequence(t, seed, opts, d.Policies[:4], prefs) })
		}
	}
}

func twinSequence(t *testing.T, seed int64, opts Options, pool []*p3p.Policy, prefs []string) {
	live, err := NewSiteWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &twinRun{
		t: t, rng: rand.New(rand.NewSource(seed)), live: live,
		pool: pool, held: map[string]*p3p.Policy{}, prefs: prefs,
	}
	steps := []func(){
		r.install, r.install, r.remove, r.flip, r.flip, r.replace, r.replace,
		r.reference, r.register, r.register, r.noop, r.fail,
	}
	// Seed the site so the first steps have something to edit, then run
	// every kind of write twice in a seeded order.
	r.install()
	r.install()
	r.flip()
	r.reference()
	r.check("setup")
	for round := 0; round < 2; round++ {
		r.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		for i, step := range steps {
			step()
			r.check(fmt.Sprintf("round %d step %d", round, i))
		}
	}
}

// absent returns a pool policy the live site does not hold, or nil.
func (r *twinRun) absent() *p3p.Policy {
	var out []*p3p.Policy
	for _, p := range r.pool {
		if r.held[p.Name] == nil {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out[r.rng.Intn(len(out))]
}

func (r *twinRun) heldNames() []string {
	names := make([]string, 0, len(r.held))
	for n := range r.held {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func (r *twinRun) apply(muts ...Mutation) {
	r.t.Helper()
	if err := r.live.ApplyBatch(muts); err != nil {
		r.t.Fatal(err)
	}
}

// install installs an absent corpus policy by its parsed pointer, so a
// policy removed earlier comes back as the same pointer under a new id.
func (r *twinRun) install() {
	p := r.absent()
	if p == nil {
		r.remove()
		return
	}
	r.apply(InstallPolicyMutation(p))
	r.held[p.Name] = p
}

func (r *twinRun) remove() {
	names := r.heldNames()
	if len(names) == 0 {
		r.install()
		return
	}
	n := names[r.rng.Intn(len(names))]
	r.apply(RemovePolicyMutation(n))
	delete(r.held, n)
}

// flip replaces the flip policy by its other text under the same name,
// in one batch, so the name set stays the same while its content and id
// change.
func (r *twinRun) flip() {
	r.flips++
	xml := benignPolicyXML(twinPolicy)
	if r.flips%2 == 1 {
		xml = blockingPolicyXML(twinPolicy)
	}
	p := mustParseOne(r.t, xml)
	var muts []Mutation
	if r.held[twinPolicy] != nil {
		muts = append(muts, RemovePolicyMutation(twinPolicy))
	}
	r.apply(append(muts, InstallPolicyMutation(p))...)
	r.held[twinPolicy] = p
}

// replace reinstalls every held policy in a shuffled order, which gives
// each a new id; half the time the policies are the same parsed
// pointers, half the time re-parsed from their text.
func (r *twinRun) replace() {
	names := r.heldNames()
	r.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	reparse := r.rng.Intn(2) == 0
	pols := make([]*p3p.Policy, len(names))
	for i, n := range names {
		pols[i] = r.held[n]
		if reparse {
			pols[i] = mustParseOne(r.t, r.live.ExportState().PolicyXML[n])
			r.held[n] = pols[i]
		}
	}
	if err := r.live.ReplacePolicies(pols, nil); err != nil {
		r.t.Fatal(err)
	}
	r.reference()
}

// reference installs a reference file over a seeded subset of the held
// policies: a write that changes no policy.
func (r *twinRun) reference() {
	var b strings.Builder
	b.WriteString(`<META xmlns="http://www.w3.org/2002/01/P3Pv1"><POLICY-REFERENCES>`)
	for _, n := range r.heldNames() {
		if r.rng.Intn(3) > 0 {
			fmt.Fprintf(&b, `<POLICY-REF about="#%s"><INCLUDE>/%s/*</INCLUDE><COOKIE-INCLUDE name="%s-*"/></POLICY-REF>`, n, n, n)
		}
	}
	b.WriteString(`</POLICY-REFERENCES></META>`)
	if err := r.live.InstallReferenceFileXML(b.String()); err != nil {
		r.t.Fatal(err)
	}
}

func (r *twinRun) register() {
	i := r.rng.Intn(len(r.prefs))
	engines := [][]string{{"sql"}, {"sql", "xtable"}, {"native", "xquery"}}[r.rng.Intn(3)]
	if err := r.live.RegisterPreferenceXML(fmt.Sprintf("pref%d", i), r.prefs[i], engines); err != nil {
		r.t.Fatal(err)
	}
}

// noop applies a batch that leaves the policy set and reference file as
// they were: an install undone in the same batch.
func (r *twinRun) noop() {
	p := r.absent()
	if p == nil {
		p = mustParseOne(r.t, benignPolicyXML("transient"))
	}
	r.apply(InstallPolicyMutation(p), RemovePolicyMutation(p.Name))
}

// fail applies a batch whose last mutation fails; nothing may change.
func (r *twinRun) fail() {
	before := r.live.ExportState()
	muts := []Mutation{RemovePolicyMutation("never-installed")}
	if p := r.absent(); p != nil {
		muts = append([]Mutation{InstallPolicyMutation(p)}, muts...)
	}
	if err := r.live.ApplyBatch(muts); err == nil {
		r.t.Fatal("batch removing an uninstalled policy succeeded")
	}
	if after := r.live.ExportState(); !reflect.DeepEqual(before, after) {
		r.t.Fatalf("failed batch changed the site:\nbefore %+v\nafter  %+v", before, after)
	}
}

// answers renders everything the twin must agree on: every decision
// outcome or error, and each held policy's URI and cookie resolution.
func (r *twinRun) answers(s *Site) string {
	var b strings.Builder
	names := s.PolicyNames()
	for _, pref := range r.prefs {
		for _, n := range names {
			for _, e := range Engines {
				d, err := s.MatchPolicy(pref, n, e)
				fmt.Fprintf(&b, "%.12s|%s|%s|%+v|%v\n", pref, n, e.ShortName(), d.outcome(), err)
			}
		}
	}
	for _, n := range names {
		u, uerr := s.PolicyForURI("/" + n + "/index.html")
		c, cerr := s.PolicyForCookie(n + "-session")
		cp, cperr := s.CompactPolicy(n)
		fmt.Fprintf(&b, "%s|uri %s %v|cookie %s %v|cp %s %v\n", n, u, uerr, c, cerr, cp, cperr)
	}
	return b.String()
}

func (r *twinRun) check(step string) {
	r.t.Helper()
	exp := r.live.ExportState()
	twin, err := NewSite()
	if err != nil {
		r.t.Fatal(err)
	}
	if err := twin.RestoreState(exp); err != nil {
		r.t.Fatalf("%s: restore: %v", step, err)
	}
	if got := twin.ExportState(); !reflect.DeepEqual(got, exp) {
		r.t.Fatalf("%s: exports differ:\nlive %+v\ntwin %+v", step, exp, got)
	}
	want, got := r.answers(twin), r.answers(r.live)
	if got != want {
		r.t.Fatalf("%s: live site and restored twin disagree:\nlive:\n%s\ntwin:\n%s", step, got, want)
	}
}
