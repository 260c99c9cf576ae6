package core

// Pre-warm: incremental policy evaluation over the registered preference
// rulesets, run inside ApplyBatch between materializing the successor
// snapshot and publishing it. Every decision produced here is keyed by
// the successor's generation, which no reader can observe until the
// atomic swap — so the cache a visitor sees the instant the new snapshot
// publishes is already warm, instead of the whole hot set faulting
// through the engines at once (the post-publication miss storm).
//
// Two mechanisms fill the cache:
//
//   - Carry-forward: every decision cached against the previous
//     generation whose policy document is byte-identical in the
//     successor is re-keyed as-is. A decision is a pure function of
//     (preference text, policy text, engine), so unchanged text means an
//     unchanged decision — this covers organic (unregistered) traffic
//     across registrations and no-op republishes for free.
//
//   - Index-selected evaluation: for registered preferences, the
//     prefindex predicate index selects, per changed policy, the rules
//     that could possibly fire, and only those are evaluated — by the
//     same evaluate an organic match runs, with the other rules masked
//     off, so a pre-warmed decision is byte-identical to the one the
//     engine would compute after the swap. Pairs whose conversion or
//     evaluation errors are skipped, never cached: the organic path
//     would surface the same error, uncached, and keeping the cache free
//     of them preserves that.
//
// The pass deliberately bypasses match(): per-engine core.match.*
// counters and conflict analytics move only for real visitor traffic,
// which the metrics reconciliation invariants (server tests) depend on.
// Pre-warm work is accounted under core.prewarm.* instead.

import (
	"context"
	"fmt"

	"p3pdb/internal/decision"
	"p3pdb/internal/obs"
	"p3pdb/internal/prefindex"
	"p3pdb/internal/resource"
)

var (
	obsPrewarmPublishes = obs.GetCounter("core.prewarm.publishes")
	obsPrewarmCarried   = obs.GetCounter("core.prewarm.carried")
	obsPrewarmEvaluated = obs.GetCounter("core.prewarm.evaluated")
	obsPrewarmStatic    = obs.GetCounter("core.prewarm.static")
	obsPrewarmSkipped   = obs.GetCounter("core.prewarm.skipped")
	obsPrewarmSelected  = obs.GetCounter("core.prewarm.selected_rules")
	obsPrewarmTotal     = obs.GetCounter("core.prewarm.total_rules")
)

// PrewarmStats tallies the pre-warm pass: decisions carried forward,
// decisions produced by index-selected evaluation, and the selectivity
// evidence (selected vs. total rules across evaluated pairs).
type PrewarmStats struct {
	// Publishes counts snapshot publications that ran the pass.
	Publishes int64 `json:"publishes"`
	// Carried counts decisions re-keyed from the previous generation
	// because their policy document was unchanged.
	Carried int64 `json:"carried"`
	// Evaluated counts decisions produced by index-selected evaluation.
	Evaluated int64 `json:"evaluated"`
	// Static counts evaluated decisions whose selection the index proved
	// static (first selectable rule fires unconditionally).
	Static int64 `json:"static"`
	// Residual counts evaluated decisions forced exhaustive by an armed
	// prefindex.select fault.
	Residual int64 `json:"residual"`
	// NoRule counts (preference, policy) pairs the index proved fire no
	// rule at all; nothing is cached for them, matching the engines'
	// uncached no-rule-fired error.
	NoRule int64 `json:"noRule"`
	// Skipped counts (preference, policy, engine) evaluations abandoned
	// on a conversion or evaluation error.
	Skipped int64 `json:"skipped"`
	// SelectedRules and TotalRules accumulate, over evaluated pairs, how
	// many rules the index selected vs. how many the rulesets hold — the
	// selectivity ratio the bench table reports.
	SelectedRules int64 `json:"selectedRules"`
	TotalRules    int64 `json:"totalRules"`
}

// PrewarmStats reports the cumulative pre-warm tallies and those of the
// most recent snapshot publication.
func (s *Site) PrewarmStats() (cumulative, last PrewarmStats) {
	s.prewarmMu.Lock()
	defer s.prewarmMu.Unlock()
	return s.prewarmCum, s.prewarmLast
}

// RegisterPreferenceMutation registers (or replaces) a preference
// ruleset under a name, in batchable form. The APPEL document is parsed,
// validated, and witness-indexed here, so malformed registrations fail
// before anything joins a batch. engines lists the engines to pre-warm
// under by short name; empty defaults to "sql" (the paper's deployment
// engine).
func RegisterPreferenceMutation(name, xml string, engines []string) (Mutation, error) {
	if len(engines) == 0 {
		engines = []string{"sql"}
	}
	norm := make([]string, 0, len(engines))
	seen := map[string]bool{}
	for _, e := range engines {
		eng, err := ParseEngine(e)
		if err != nil {
			return Mutation{}, err
		}
		if sn := eng.ShortName(); !seen[sn] {
			seen[sn] = true
			norm = append(norm, sn)
		}
	}
	p, err := prefindex.Compile(name, xml, norm)
	if err != nil {
		return Mutation{}, fmt.Errorf("core: register preference %q: %w", name, err)
	}
	return Mutation{edit: func(d *stateDraft) error {
		d.prefs = d.prefs.With(p)
		return nil
	}}, nil
}

// RegisterPreferenceXML registers (or replaces) a preference ruleset and
// publishes a successor snapshot, pre-warming the new preference against
// every installed policy before the swap.
func (s *Site) RegisterPreferenceXML(name, xml string, engines []string) error {
	m, err := RegisterPreferenceMutation(name, xml, engines)
	if err != nil {
		return err
	}
	return s.ApplyBatch([]Mutation{m})
}

// RegisteredPreference describes one registered preference for listings.
type RegisteredPreference struct {
	Name    string   `json:"name"`
	Engines []string `json:"engines"`
	Rules   int      `json:"rules"`
}

// RegisteredPreferences lists the registered preferences in registration
// order.
func (s *Site) RegisteredPreferences() []RegisteredPreference {
	var out []RegisteredPreference
	for _, p := range s.state.Load().prefs.Prefs() {
		out = append(out, RegisteredPreference{
			Name:    p.Name,
			Engines: append([]string(nil), p.Engines...),
			Rules:   len(p.Rules.Rules),
		})
	}
	return out
}

// prewarm fills the decision cache for the not-yet-published successor
// snapshot. Called from ApplyBatch under writeMu, after materialize and
// before the atomic publish; next's generation is invisible to readers
// throughout, so every Preseed lands before the first post-swap lookup
// can probe for it.
func (s *Site) prewarm(prev, next *siteState) {
	if s.decisions == nil {
		return
	}
	var t PrewarmStats
	t.Publishes = 1
	// Carry forward every previous-generation decision whose policy
	// document is unchanged: same preference text, same policy text,
	// same engine — same decision, by construction.
	for _, e := range s.decisions.EntriesAt(prev.gen) {
		ne, pe := next.entries[e.Key.Policy], prev.entries[e.Key.Policy]
		if ne == nil || pe == nil || ne.xml != pe.xml {
			continue
		}
		k := e.Key
		k.Gen = next.gen
		s.decisions.Preseed(k, e.Out)
		t.Carried++
	}
	// Index-selected evaluation over the registered preferences. Work is
	// limited to (every preference x changed policies) plus (newly
	// registered preferences x all policies); everything else was either
	// carried forward or was never cached before.
	if set := next.prefs; set.Len() > 0 {
		newPref := map[string]bool{}
		for _, p := range set.Prefs() {
			if old, ok := prev.prefs.Get(p.Name); !ok || old != p {
				newPref[p.Name] = true
			}
		}
		for _, polName := range next.order {
			e, pe := next.entries[polName], prev.entries[polName]
			changed := pe == nil || pe.xml != e.xml
			if !changed && len(newPref) == 0 {
				continue
			}
			if e.terms == nil {
				e.terms = prefindex.PolicyTerms(e.augmented)
			}
			for _, sel := range set.Select(e.terms) {
				if !changed && !newPref[sel.Pref.Name] {
					continue
				}
				s.prewarmPair(next, polName, sel, &t)
			}
		}
	}
	obsPrewarmPublishes.Inc()
	obsPrewarmCarried.Add(t.Carried)
	obsPrewarmEvaluated.Add(t.Evaluated)
	obsPrewarmStatic.Add(t.Static)
	obsPrewarmSkipped.Add(t.Skipped)
	obsPrewarmSelected.Add(t.SelectedRules)
	obsPrewarmTotal.Add(t.TotalRules)
	s.prewarmMu.Lock()
	s.prewarmCum.Publishes += t.Publishes
	s.prewarmCum.Carried += t.Carried
	s.prewarmCum.Evaluated += t.Evaluated
	s.prewarmCum.Static += t.Static
	s.prewarmCum.Residual += t.Residual
	s.prewarmCum.NoRule += t.NoRule
	s.prewarmCum.Skipped += t.Skipped
	s.prewarmCum.SelectedRules += t.SelectedRules
	s.prewarmCum.TotalRules += t.TotalRules
	s.prewarmLast = t
	s.prewarmMu.Unlock()
}

// prewarmPair evaluates one (preference, policy) selection under each of
// the preference's engines and preseeds the outcomes.
func (s *Site) prewarmPair(st *siteState, policy string, sel prefindex.Selection, t *PrewarmStats) {
	if sel.NoRule {
		// Every rule provably cannot fire. The organic match would
		// return the engine's no-rule-fired error, which is never
		// cached — so there is nothing to warm, and skipping keeps the
		// cache's contents identical to what organic traffic builds.
		t.NoRule++
		return
	}
	ctx := context.Background()
	for _, en := range sel.Pref.Engines {
		eng, err := ParseEngine(en)
		if err != nil {
			continue
		}
		k := decision.Key{Gen: st.gen, Engine: uint8(eng), Policy: policy, Pref: sel.Pref.XML}
		if _, ok := s.decisions.Peek(k); ok {
			continue // already carried forward
		}
		// The organic path's evaluation, with the rules the index proved
		// cannot fire masked off. Evaluation returns the first firing
		// rule in order, so the masked decision is the exhaustive one.
		conv, err := s.conversion(sel.Pref.XML)
		var d Decision
		if err == nil {
			d, err = s.evaluate(ctx, st, conv, policy, eng, sel.Mask, resource.NewMeter(ctx, s.matchBudget))
		}
		if err != nil {
			// Conversion or evaluation failed — including the engine's
			// own no-rule-fired. The organic path surfaces the same
			// outcome uncached; caching nothing preserves that exactly.
			t.Skipped++
			continue
		}
		s.decisions.Preseed(k, d.outcome())
		t.Evaluated++
		if sel.Static {
			t.Static++
		}
		if sel.Residual {
			t.Residual++
		}
		t.SelectedRules += int64(sel.Selected)
		t.TotalRules += int64(len(sel.Mask))
	}
}
