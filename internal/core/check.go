package core

import (
	"context"
	"errors"

	"p3pdb/internal/appelengine"
	"p3pdb/internal/compact"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
)

// This file is the server side of the user-agent protocol loop
// (DESIGN.md §11): reference-file lookup picks the applicable policy,
// a compact-summary pre-decision tries to prove the request safe, and
// only an inconclusive summary falls back to the full engine (and its
// decision cache).
//
// The fast path's contract is conservatism: it may return "allowed"
// only when full evaluation provably cannot block. The proof has two
// halves, both in internal/compact: SummarySafe admits only preference
// rulesets whose block rules sit in a monotone pattern fragment, and
// ToEvidence builds an evidence document that over-approximates every
// statement of the original policy under that fragment. A safe block
// rule that matches the original policy therefore also matches the
// evidence — so when no block rule fires on the evidence, no block
// rule fires in full evaluation either, and the first-match semantics
// guarantee the full decision is a non-block behavior.

// summaryEngine evaluates block rules against the pre-augmented
// evidence documents; augmentation already happened at snapshot
// publication, so per-check cost is rule evaluation alone.
var summaryEngine = appelengine.NewWithOptions(appelengine.Options{SkipAugmentation: true})

// Fast-path observability: checks attempted, summary-proved allows,
// fallbacks to the full engine, and faultkit-forced fallbacks (the
// drill's marker, mirroring decision.forced_misses).
var (
	obsFastChecks    = obs.GetCounter("fastpath.checks")
	obsFastHits      = obs.GetCounter("fastpath.hits")
	obsFastFallbacks = obs.GetCounter("fastpath.fallbacks")
	obsFastForced    = obs.GetCounter("fastpath.forced_fallbacks")
)

// CheckResult is the outcome of one protocol-loop check.
type CheckResult struct {
	// Allowed reports whether the site may serve the request: true on
	// the fast path, and Behavior != "block" on the fallback.
	Allowed bool
	// FastPath reports that the compact summary proved the decision
	// without running a full engine.
	FastPath bool
	// FallbackReason says why the fast path was inconclusive: one of
	// "no-summary", "forced", "preference-error", "unsafe-preference",
	// "summary-block", or "summary-error". Empty on the fast path.
	FallbackReason string
	// PolicyName is the applicable policy the reference file selected.
	PolicyName string
	// CP is the policy's compact form (the P3P header value); empty
	// when the policy has no compact form.
	CP string
	// Generation is the snapshot generation the check ran against.
	Generation uint64
	// Decision is the full engine's decision when the fallback ran,
	// nil on the fast path.
	Decision *Decision
}

// CheckURI runs the protocol loop for a page request: reference-file
// lookup, compact fast path, full-match fallback.
func (s *Site) CheckURI(prefXML, uri string, engine Engine) (CheckResult, error) {
	return s.CheckURICtx(context.Background(), prefXML, uri, engine)
}

// CheckURICtx is CheckURI governed by a context (see MatchPolicyCtx).
func (s *Site) CheckURICtx(ctx context.Context, prefXML, uri string, engine Engine) (CheckResult, error) {
	st := s.state.Load()
	name, err := st.policyForURI(uri)
	if err != nil {
		return CheckResult{}, err
	}
	return s.check(ctx, st, prefXML, name, engine)
}

// CheckCookie runs the protocol loop for a cookie, resolved through the
// reference file's COOKIE-INCLUDE/COOKIE-EXCLUDE patterns.
func (s *Site) CheckCookie(prefXML, cookieName string, engine Engine) (CheckResult, error) {
	return s.CheckCookieCtx(context.Background(), prefXML, cookieName, engine)
}

// CheckCookieCtx is CheckCookie governed by a context.
func (s *Site) CheckCookieCtx(ctx context.Context, prefXML, cookieName string, engine Engine) (CheckResult, error) {
	st := s.state.Load()
	name, err := st.policyForCookie(cookieName)
	if err != nil {
		return CheckResult{}, err
	}
	return s.check(ctx, st, prefXML, name, engine)
}

// check tries the compact pre-decision and falls back to the full match
// pipeline (decision cache included) when it is inconclusive. Both
// halves run against the same snapshot, so a concurrent policy write
// cannot split the check across generations.
func (s *Site) check(ctx context.Context, st *siteState, prefXML, policyName string, engine Engine) (CheckResult, error) {
	cs := st.entries[policyName].compact
	res := CheckResult{PolicyName: policyName, CP: cs.cp, Generation: st.gen}
	obsFastChecks.Inc()
	reason := s.fastAllow(prefXML, cs)
	span := obs.SpanFromContext(ctx)
	span.Annotate("policy", policyName)
	if reason == "" {
		obsFastHits.Inc()
		span.Annotate("fastpath", "hit")
		res.Allowed = true
		res.FastPath = true
		return res, nil
	}
	obsFastFallbacks.Inc()
	span.Annotate("fastpath", reason)
	res.FallbackReason = reason
	d, err := s.match(ctx, st, prefXML, policyName, engine)
	if err != nil {
		return CheckResult{}, err
	}
	res.Allowed = !d.Blocked()
	res.Decision = &d
	return res, nil
}

// fastAllow returns "" when the summary proves full matching cannot
// block, or the fallback reason otherwise. It never errors: every
// failure mode degrades to the full engine.
func (s *Site) fastAllow(prefXML string, cs *compactSummary) string {
	if cs == nil || cs.evidence == nil {
		return "no-summary"
	}
	if err := faultkit.Inject(faultkit.PointFastpathSummary); err != nil {
		obsFastForced.Inc()
		return "forced"
	}
	conv, err := s.conversion(prefXML)
	if err != nil {
		// The fallback engine will surface the same conversion error.
		return "preference-error"
	}
	if !compact.SummarySafe(conv.rs) {
		return "unsafe-preference"
	}
	blocks := compact.BlockRules(conv.rs)
	if len(blocks.Rules) == 0 {
		// Nothing can block; the catch-all SummarySafe requires makes
		// full evaluation fire a non-block rule.
		return ""
	}
	_, err = summaryEngine.MatchDOM(blocks, cs.evidence)
	switch {
	case errors.Is(err, appelengine.ErrNoRuleFired):
		// No block rule fires on the over-approximating evidence, so
		// none fires on the real policy: full matching cannot block.
		return ""
	case err == nil:
		// A block rule fired on the evidence. The evidence over-fires
		// by design, so this is not a block decision — just a request
		// the summary cannot prove safe.
		return "summary-block"
	default:
		return "summary-error"
	}
}
