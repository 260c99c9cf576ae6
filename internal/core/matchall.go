package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p3pdb/internal/obs"
)

// Worker-pool observability (obs registry, DESIGN.md §8): batches run,
// per-policy matches fanned out, queue wait (batch start → worker claims
// the policy, the time an item spent waiting for a worker slot), and
// early stops (policies never attempted because the batch context ended).
var (
	obsBatches    = obs.GetCounter("core.matchall.batches")
	obsBatchItems = obs.GetCounter("core.matchall.policies")
	obsEarlyStops = obs.GetCounter("core.matchall.early_stops")
	obsQueueWait  = obs.GetHistogram("core.matchall.queue_wait_us")
)

// PolicyError records one policy's failure inside a batch match, so
// callers can tell which policies failed without losing the ones that
// succeeded. It unwraps to the underlying cause, so errors.Is sees
// through it (e.g. to resource.ErrBudgetExceeded).
type PolicyError struct {
	Policy string
	Err    error
}

func (e *PolicyError) Error() string { return fmt.Sprintf("policy %s: %v", e.Policy, e.Err) }
func (e *PolicyError) Unwrap() error { return e.Err }

// MatchAll fans one preference across every installed policy with a
// bounded worker pool and returns the decisions ordered by policy name.
// It is the batch face of the parallel read path: the batch loads the
// site snapshot once and every worker matches lock-free against it —
// the whole batch reflects exactly one policy set even when installs
// land mid-batch — and the conversion cache guarantees the preference
// is translated at most once for the whole batch. Site owners use it to
// answer "which of my policies would this preference block?" in one
// call (the Section 4.2 analytics direction).
func (s *Site) MatchAll(prefXML string, engine Engine) ([]Decision, error) {
	return s.MatchAllCtx(context.Background(), prefXML, engine)
}

// MatchAllCtx is MatchAll governed by a context. Cancellation stops the
// fan-out early: workers stop claiming policies as soon as the context
// ends, and in-flight matches abort at their next meter poll. Each
// per-policy match additionally runs under Options.PerPolicyTimeout (if
// set) and the Site's match budget, so one pathological policy cannot
// starve the batch.
//
// Per-policy failures are aggregated, not fatal: the returned decisions
// hold every successful match (still ordered by policy name), and the
// returned error joins one *PolicyError per failure (plus the context's
// error if it ended early). Both can be non-empty at once — callers that
// want the old all-or-nothing behavior check err first.
func (s *Site) MatchAllCtx(ctx context.Context, prefXML string, engine Engine) ([]Decision, error) {
	// One snapshot for the whole batch: a concurrent install/remove/
	// replace publishes a successor state, which this batch deliberately
	// does not see — no torn mix of old and new policies.
	st := s.state.Load()
	names := st.names // sorted, and immutable with the snapshot
	if len(names) == 0 {
		return nil, nil
	}
	obsBatches.Inc()
	decisions := make([]Decision, len(names))
	errs := make([]error, len(names))
	attempted := make([]bool, len(names))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(names) {
		workers = len(names)
	}
	// tracing gates the per-policy child spans: a span is a small
	// allocation per policy, worth paying only when someone is reading
	// the trace. Metrics (queue wait, counters) are always on.
	tracing := obs.TracingEnabled()
	batchStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				attempted[i] = true
				obsBatchItems.Inc()
				obsQueueWait.ObserveDuration(time.Since(batchStart))
				pctx := ctx
				var ps *obs.Span
				if tracing {
					pctx, ps = obs.StartSpan(pctx, "matchall.policy")
				}
				if s.perPolicyTimeout > 0 {
					var cancel context.CancelFunc
					pctx, cancel = context.WithTimeout(pctx, s.perPolicyTimeout)
					decisions[i], errs[i] = s.matchPolicyState(pctx, st, prefXML, names[i], engine)
					cancel()
				} else {
					decisions[i], errs[i] = s.matchPolicyState(pctx, st, prefXML, names[i], engine)
				}
				if ps != nil {
					if errs[i] != nil {
						ps.SetOutcome("error")
					} else {
						ps.SetOutcome("ok")
					}
					ps.End()
				}
			}
		}()
	}
	wg.Wait()

	out := decisions[:0]
	var failures []error
	for i, name := range names {
		switch {
		case !attempted[i]:
			// The batch context ended before a worker reached this
			// policy; ctx.Err() below reports why.
			obsEarlyStops.Inc()
		case errs[i] != nil:
			failures = append(failures, &PolicyError{Policy: name, Err: errs[i]})
		default:
			out = append(out, decisions[i])
		}
	}
	if err := ctx.Err(); err != nil {
		failures = append(failures, err)
	}
	return out, errors.Join(failures...)
}
