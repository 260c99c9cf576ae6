// Package server exposes a core.Site over HTTP: the deployed form of the
// paper's server-centric architecture (Figures 5 and 6). Site owners
// install policies and the reference file; thin clients submit their APPEL
// preference with the URI they want to visit and receive the matching
// decision, keeping all parsing, augmentation, and query processing on the
// server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/reldb"
	"p3pdb/internal/resource"
)

// maxBodyBytes bounds request bodies; P3P documents are small.
const maxBodyBytes = 1 << 20

// defaultReadHeaderTimeout bounds how long a connection may dribble its
// headers before the server gives up on it (slowloris protection).
const defaultReadHeaderTimeout = 5 * time.Second

// Options configure the HTTP layer's resource governance. The zero value
// leaves requests ungoverned (beyond any Site-level budget).
type Options struct {
	// RequestTimeout, when positive, bounds each matching request: the
	// request context is wrapped in a deadline, so a match that overruns
	// is aborted in the engines and reported as 504.
	RequestTimeout time.Duration
	// Journal, when set, makes the admin mutation endpoints durable:
	// POST/PUT /policies, DELETE /policies/{name}, and POST /reference
	// are applied and logged to the tenant's write-ahead log before the
	// 2xx is sent, a checkpoint is cut automatically past the configured
	// record count, and GET /durability reports the log position. It
	// also enables GET /wal, the leader half of replication (DESIGN.md
	// §12): the log streamed as CRC-framed records from a given LSN.
	Journal *durable.Tenant
	// ReadOnly makes this the follower face of replication: every admin
	// mutation is rejected with a typed 403 naming Leader, while the
	// read and matching endpoints keep serving from local snapshots.
	ReadOnly bool
	// Leader is the leader's base URL, reported in read-only rejections
	// so clients know where writes go.
	Leader string
}

// Server is one site's binding to the HTTP API: the site, its journal
// and the governance options. It owns no routes. Every site is served
// through the one siteRoutes table, whose handlers find their Server on
// the request context, so a MultiServer binds a tenant per request
// without building anything else.
type Server struct {
	site *core.Site
	opts Options
}

// New wraps a site with default options.
func New(site *core.Site) *Server {
	return NewWithOptions(site, Options{})
}

// NewWithOptions wraps a site.
func NewWithOptions(site *core.Site, opts Options) *Server {
	obs.PublishExpvar()
	return &Server{site: site, opts: opts}
}

// serverKey is the context key carrying a request's *Server.
type serverKey struct{}

// siteRoutes is the per-site API, registered once per process with its
// instruments resolved once. A single-site server serves it at the
// root; a MultiServer serves it under /sites/{name}/ and by Host.
var siteRoutes = newSiteRoutes()

func newSiteRoutes() *http.ServeMux {
	mux := http.NewServeMux()
	route := func(path, name string, h func(*Server, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc(path, instrument(name, func(w http.ResponseWriter, r *http.Request) {
			h(r.Context().Value(serverKey{}).(*Server), w, r)
		}))
	}
	route("/policies", "policies", (*Server).handlePolicies)
	route("/policies/", "policy", (*Server).handlePolicyByName)
	route("/compact/", "compact", (*Server).handleCompact)
	route("/reference", "reference", (*Server).handleReference)
	route("/check", "check", (*Server).handleCheck)
	route("/matchpolicy", "matchpolicy", (*Server).handleMatchPolicy)
	route("/matchall", "matchall", (*Server).handleMatchAll)
	route("/analytics", "analytics", (*Server).handleAnalytics)
	route("/prefs", "prefs", (*Server).handlePrefs)
	route("/durability", "durability", (*Server).handleDurability)
	route("/wal", "wal", (*Server).handleWAL)
	mux.Handle("/metrics", obs.Handler(obs.Default))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", handleHealthz)
	// A site has no lazy loading: once bound it is ready, so readiness
	// degenerates to liveness.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// statusWriter captures the response status so the instrumentation can
// count errors and tag spans without changing handler signatures.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with the server's observability (DESIGN.md
// §8): a request counter, an error counter (4xx/5xx responses), and a
// latency histogram, all named server.<handler>.*. When a trace writer is
// installed it also opens a request root span carried on the request
// context, so the engines' child spans and annotations hang off it; the
// span's outcome defaults to ok/error by status, unless a governance
// classification (writeMatchError) set something more precise.
func instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.GetCounter("server." + name + ".requests")
	errs := obs.GetCounter("server." + name + ".errors")
	lat := obs.GetHistogram("server." + name + ".latency_us")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var span *obs.Span
		if obs.TracingEnabled() {
			var ctx context.Context
			ctx, span = obs.StartSpan(r.Context(), "server."+name)
			r = r.WithContext(ctx)
		}
		h(sw, r)
		lat.ObserveDuration(time.Since(start))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if status >= 400 {
			errs.Inc()
		}
		if span != nil {
			span.Annotate("status", strconv.Itoa(status))
			if span.Outcome() == "" {
				if status >= 400 {
					span.SetOutcome("error")
				} else {
					span.SetOutcome("ok")
				}
			}
			span.End()
		}
	}
}

// ServeHTTP implements http.Handler: it binds the request to this site
// and dispatches it through siteRoutes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	siteRoutes.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), serverKey{}, s)))
}

// HTTPServer wraps the handler in an http.Server with sane timeouts.
func (s *Server) HTTPServer(addr string) *http.Server { return httpServer(addr, s) }

// httpServer is the listener both server types deploy. The seed served
// with a bare ListenAndServe, which never times out header reads and so
// holds a goroutine per stalled connection forever. Write timeouts are
// deliberately left to the per-request deadline (Options.RequestTimeout)
// so long-but-governed matches are not cut off mid-response.
func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: defaultReadHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

// matchContext derives the context a matching request runs under,
// applying the per-request timeout when configured.
func (s *Server) matchContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return r.Context(), func() {}
}

// apiError is the JSON error envelope. Reason carries the governance
// classification (budget-exceeded, deadline-exceeded, ...) so clients can
// distinguish "spent too much" from "took too long" without parsing the
// message text.
type apiError struct {
	Error  string   `json:"error"`
	Reason string   `json:"reason,omitempty"`
	Errors []string `json:"errors,omitempty"`
	// Leader names the leader's base URL on read-only-replica
	// rejections, so a client holding a follower address can redirect
	// its write without out-of-band configuration.
	Leader string `json:"leader,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// classifyMatchError maps a matching failure to its HTTP status and
// governance reason. The distinctions clients care about:
//
//   - 503 budget-exceeded: the query spent its step budget — retrying
//     without a bigger budget (or a simpler preference) will not help.
//   - 504 deadline-exceeded: wall-clock ran out — a retry may succeed on
//     a less loaded server.
//   - 503 canceled: the caller (or shutdown) went away mid-match.
//   - 503 fault-injected: a test fault fired (never in production).
//   - 422 too-complex: the XTABLE path rejected an exact-heavy
//     preference, reproducing the paper's blank Figure 21 cell.
//   - 400 otherwise: the request itself was malformed.
func classifyMatchError(err error) (status int, reason string) {
	switch {
	case errors.Is(err, resource.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, "budget-exceeded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline-exceeded"
	case errors.Is(err, resource.ErrCanceled), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, faultkit.ErrInjected):
		return http.StatusServiceUnavailable, "fault-injected"
	case errors.Is(err, reldb.ErrTooComplex):
		return http.StatusUnprocessableEntity, "too-complex"
	}
	return http.StatusBadRequest, ""
}

// writeMatchError reports a matching failure, with the governance reason
// in both the JSON envelope and a Server-Timing aborted entry so proxies
// and browser devtools see why the stage was cut short. The reason also
// becomes the request span's outcome, so trace lines distinguish
// budget-exceeded from deadline-exceeded without parsing messages.
func writeMatchError(w http.ResponseWriter, r *http.Request, err error) {
	status, reason := classifyMatchError(err)
	if reason != "" {
		w.Header().Set("Server-Timing", fmt.Sprintf("aborted;desc=%q", reason))
		obs.SpanFromContext(r.Context()).SetOutcome(reason)
	}
	writeJSON(w, status, apiError{Error: err.Error(), Reason: reason})
}

// readBody reads a request body of at most maxBodyBytes. Only an
// oversized body is a 413; a body that fails or ends early is the
// client's malformed request, a 400.
func readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return "", false
	}
	return string(body), true
}

// InstallResponse reports the outcome of a policy installation.
type InstallResponse struct {
	Installed []string `json:"installed"`
}

// journalErrors counts admin mutations that failed at the durability
// layer (logged-and-rolled-back), distinct from plain bad requests.
var obsJournalErrs = obs.GetCounter("server.durability.journal_errors")

// writeJournalError reports a mutation that could not be made durable:
// the site was rolled back, so the client must retry — a 503, not a 400.
func writeJournalError(w http.ResponseWriter, err error) {
	obsJournalErrs.Inc()
	writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error(), Reason: "durability-failed"})
}

// afterMutation cuts an automatic checkpoint when the journal's record
// count since the last one crossed the configured threshold. Checkpoint
// failure does not undo the (already durable) mutation; it is surfaced
// as a counter and retried on the next mutation.
func (s *Server) afterMutation() {
	if s.opts.Journal == nil {
		return
	}
	if err := s.opts.Journal.MaybeCheckpoint(s.site); err != nil {
		obs.GetCounter("server.durability.checkpoint_errors").Inc()
	}
}

// handlePolicies implements POST /policies (install a POLICY or POLICIES
// document) and GET /policies (list installed names). With a journal the
// install is durable — applied and logged — before the 201 is sent.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		if s.rejectReadOnly(w) {
			return
		}
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var names []string
		var err error
		if s.opts.Journal != nil {
			names, err = s.opts.Journal.InstallPolicyXML(s.site, body)
		} else {
			names, err = s.site.InstallPolicyXML(body)
		}
		if err != nil {
			writeMutationError(w, err)
			return
		}
		s.afterMutation()
		writeJSON(w, http.StatusCreated, InstallResponse{Installed: names})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.site.PolicyNames())
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// rejectReadOnly guards a mutation endpoint on a follower: writes are
// rejected with a typed 403 naming the leader. Returns true when the
// request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.opts.ReadOnly {
		return false
	}
	writeReadOnly(w, s.opts.Leader)
	return true
}

// writeReadOnly is the shared read-only-replica rejection envelope.
func writeReadOnly(w http.ResponseWriter, leader string) {
	writeJSON(w, http.StatusForbidden, apiError{
		Error:  "read-only replica: send writes to the leader",
		Reason: "read-only-replica",
		Leader: leader,
	})
}

// writeMutationError classifies an admin-mutation failure: a durability
// failure (valid mutation, rolled back because it could not be logged)
// is a retryable 503; anything else is the client's bad request.
func writeMutationError(w http.ResponseWriter, err error) {
	var ae *durable.AppendError
	if errors.As(err, &ae) {
		writeJournalError(w, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// handlePolicyByName implements GET /policies/{name} (fetch the policy
// document, the client-centric fetch path) and DELETE /policies/{name}.
func (s *Server) handlePolicyByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/policies/")
	if name == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("missing policy name"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		xml, err := s.site.PolicyXML(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		// Policy fetches carry the compact form the way a P3P-enabled
		// site would: in the standard response header, so header-only
		// agents never need the document body.
		if cp, cperr := s.site.CompactPolicy(name); cperr == nil && cp != "" {
			w.Header().Set("P3P", fmt.Sprintf("CP=%q", cp))
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, xml)
	case http.MethodDelete:
		if s.rejectReadOnly(w) {
			return
		}
		var err error
		if s.opts.Journal != nil {
			err = s.opts.Journal.RemovePolicy(s.site, name)
		} else {
			err = s.site.RemovePolicy(name)
		}
		if err != nil {
			var ae *durable.AppendError
			if errors.As(err, &ae) {
				writeJournalError(w, err)
				return
			}
			writeError(w, http.StatusNotFound, err)
			return
		}
		s.afterMutation()
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleReference implements POST /reference (install the site's META
// document) and GET /reference (fetch it — the hybrid architecture's
// clients cache it to resolve URIs locally).
func (s *Server) handleReference(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		if s.rejectReadOnly(w) {
			return
		}
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var err error
		if s.opts.Journal != nil {
			err = s.opts.Journal.InstallReferenceFileXML(s.site, body)
		} else {
			err = s.site.InstallReferenceFileXML(body)
		}
		if err != nil {
			writeMutationError(w, err)
			return
		}
		s.afterMutation()
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		xml, err := s.site.ReferenceFileXML()
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, xml)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleCompact implements GET /compact/{name}: the policy's compact
// (CP-header) token form.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/compact/")
	cp, err := s.site.CompactPolicy(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, cp)
}

// MatchResponse is the JSON form of a decision.
type MatchResponse struct {
	Behavior        string `json:"behavior"`
	RuleIndex       int    `json:"ruleIndex"`
	RuleDescription string `json:"ruleDescription,omitempty"`
	Prompt          bool   `json:"prompt,omitempty"`
	PolicyName      string `json:"policyName"`
	Engine          string `json:"engine"`
	ConvertMicros   int64  `json:"convertMicros"`
	QueryMicros     int64  `json:"queryMicros"`
	// Cached reports the decision was served from the decision cache:
	// the engines never ran, so convert and query are zero by
	// construction, not by speed.
	Cached bool `json:"cached,omitempty"`
}

// setServerTiming reports the decision's conversion/query split as a
// Server-Timing header (milliseconds), so thin clients and proxies see
// where a match spent its time — and, on conversion-cache hits, that
// convert dropped to ~zero.
func setServerTiming(w http.ResponseWriter, d core.Decision) {
	w.Header().Set("Server-Timing", fmt.Sprintf("convert;dur=%.3f, query;dur=%.3f",
		float64(d.Convert.Microseconds())/1000, float64(d.Query.Microseconds())/1000))
}

func toResponse(d core.Decision) MatchResponse {
	return MatchResponse{
		Behavior:        d.Behavior,
		RuleIndex:       d.RuleIndex,
		RuleDescription: d.RuleDescription,
		Prompt:          d.Prompt,
		PolicyName:      d.PolicyName,
		Engine:          d.Engine.ShortName(),
		ConvertMicros:   d.Convert.Microseconds(),
		QueryMicros:     d.Query.Microseconds(),
		Cached:          d.Cached,
	}
}

// matchInput is what every matching door reads before it runs.
type matchInput struct {
	engine core.Engine
	pref   string
	// level is the resolved preference level of a GET /check; empty when
	// the preference came as the body.
	level string
}

// serveMatch is the front half every matching door shares: the method
// check, the engine (default sql), the preference — the APPEL body of a
// POST or, where byLevel allows a GET, a named level — the door's fault
// point, and the request's (possibly deadline-bound) context. It calls
// run only when all of them succeeded; otherwise it has answered.
func (s *Server) serveMatch(w http.ResponseWriter, r *http.Request, q url.Values, point string, byLevel bool,
	run func(ctx context.Context, in matchInput)) {
	if r.Method != http.MethodPost && (r.Method != http.MethodGet || !byLevel) {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	engineName := q.Get("engine")
	if engineName == "" {
		engineName = "sql"
	}
	engine, err := core.ParseEngine(engineName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	in := matchInput{engine: engine}
	if r.Method == http.MethodGet {
		level := q.Get("level")
		if level == "" {
			level = "mild"
		}
		p, ok := resolvePreference(level)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown preference level %q", level))
			return
		}
		in.level, in.pref = p.Level, p.XML
	} else {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		if strings.TrimSpace(body) == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing APPEL preference body"))
			return
		}
		in.pref = body
	}
	if err := faultkit.Inject(point); err != nil {
		writeMatchError(w, r, err)
		return
	}
	ctx, cancel := s.matchContext(r)
	defer cancel()
	run(ctx, in)
}

// handleMatchPolicy implements POST /matchpolicy?policy=name&engine=: the
// hybrid architecture's entry point — the client resolved the reference
// file itself (GET /reference) and names the policy directly (Section
// 4.2). It always runs the engine and answers the full decision.
func (s *Server) handleMatchPolicy(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("policy")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing policy parameter"))
		return
	}
	s.serveMatch(w, r, q, faultkit.PointServerMatch, false, func(ctx context.Context, in matchInput) {
		d, err := s.site.MatchPolicyCtx(ctx, in.pref, name, in.engine)
		if err != nil {
			writeMatchError(w, r, err)
			return
		}
		setServerTiming(w, d)
		writeJSON(w, http.StatusOK, toResponse(d))
	})
}

// MatchAllResponse is the JSON form of a batch match: one decision per
// successfully matched policy, ordered by policy name, plus the failures
// for the rest. A partially failed batch is still a 200 — per-policy
// failures must not drop the decisions that did complete.
type MatchAllResponse struct {
	Decisions []MatchResponse `json:"decisions"`
	Errors    []string        `json:"errors,omitempty"`
}

// handleMatchAll implements POST /matchall?engine= with the APPEL
// preference as the body: the preference is fanned across every installed
// policy on a worker pool (core.MatchAll), exercising the parallel read
// path in a single request. Site owners use it to preview which policies
// a preference would block.
func (s *Server) handleMatchAll(w http.ResponseWriter, r *http.Request) {
	s.serveMatch(w, r, r.URL.Query(), faultkit.PointServerLoadAll, false, func(ctx context.Context, in matchInput) {
		start := time.Now()
		decisions, err := s.site.MatchAllCtx(ctx, in.pref, in.engine)
		if err != nil && len(decisions) == 0 {
			// Everything failed: report the dominant cause. The full
			// per-policy breakdown rides along in errors.
			status, reason := classifyMatchError(err)
			if reason != "" {
				w.Header().Set("Server-Timing", fmt.Sprintf("aborted;desc=%q", reason))
				obs.SpanFromContext(r.Context()).SetOutcome(reason)
			}
			writeJSON(w, status, apiError{Error: err.Error(), Reason: reason, Errors: splitJoined(err)})
			return
		}
		resp := MatchAllResponse{Decisions: make([]MatchResponse, len(decisions))}
		for i, d := range decisions {
			resp.Decisions[i] = toResponse(d)
		}
		if err != nil {
			resp.Errors = splitJoined(err)
		}
		w.Header().Set("Server-Timing", fmt.Sprintf("total;dur=%.3f", float64(time.Since(start).Microseconds())/1000))
		writeJSON(w, http.StatusOK, resp)
	})
}

// splitJoined flattens an errors.Join result into its parts' messages.
func splitJoined(err error) []string {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var out []string
		for _, e := range joined.Unwrap() {
			out = append(out, e.Error())
		}
		return out
	}
	return []string{err.Error()}
}

// handleDurability implements GET /durability: the tenant's durable
// position — LSN, log bytes, last checkpoint — as JSON. In multi-tenant
// mode it is reached as GET /sites/{name}/durability. A site without a
// journal has no such route: it answers the mux's own 404.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request) {
	if s.opts.Journal == nil {
		http.NotFound(w, r)
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	writeJSON(w, http.StatusOK, s.opts.Journal.Status())
}

// handleAnalytics implements GET /analytics: the site-owner view of which
// policies conflict with user preferences (Section 4.2).
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	stats := s.site.Analytics()
	out := make([]map[string]any, 0, len(stats))
	for _, st := range stats {
		out = append(out, map[string]any{
			"policy": st.PolicyName,
			"rule":   st.RuleDescription,
			"blocks": st.Count,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
