package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/compact"
	"p3pdb/internal/core"
	"p3pdb/internal/decision"
	"p3pdb/internal/durable"
	"p3pdb/internal/reffile"
	"p3pdb/internal/registry"
	"p3pdb/internal/reldb"
	"p3pdb/internal/server"
	"p3pdb/internal/sqlgen"
)

// The traced pass runs p3pserver's layers in this process, outside in:
// first over HTTP on a loopback listener, then as a direct call of the
// HTTP handler, then as direct calls of the public functions each layer
// exposes. Every call is bracketed by a span recorded here, in bench/
// code; nothing inside the program is instrumented. Spans of one
// operation share its op id and name their logical parent: the handler
// call is the child of the round trip, the registry and core calls are
// children of the handler call, and the leaf probes (reference-file
// lookup, compact summary, decision cache, conversion, execution) are
// children of the core call whose work they repeat.

// span is one recorded call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: the operation's root
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, after the
// last measurement. With on false it records nothing, which is what
// trace.overhead_ratio compares against.
type recorder struct {
	t0    time.Time
	on    bool
	spans []span
}

func (r *recorder) begin(name string, parent, op int32) int32 {
	if !r.on {
		return 0
	}
	r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(r.t0))})
	return int32(len(r.spans))
}

func (r *recorder) end(id int32) {
	if id > 0 {
		r.spans[id-1].End = int64(time.Since(r.t0))
	}
}

// traceResult is what one workload's traced pass produced.
type traceResult struct {
	attempted, failed int
	spans             []span
	metrics           map[string]metric
}

// writeSpans writes one JSON object per span.
func (t *traceResult) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inproc is the in-process server the traced pass drives: the same
// registry + MultiServer + durable store p3pserver assembles, on a
// loopback listener.
type inproc struct {
	reg  *registry.Registry
	ms   *server.MultiServer
	hs   *http.Server
	addr string
}

func startInproc(dir string) (*inproc, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sites"), 0o755); err != nil {
		return nil, err
	}
	// No automatic checkpoints: the log must still hold every write when
	// durable.replay_ms replays it.
	store, err := durable.Open(filepath.Join(dir, "state"), durable.Options{Fsync: durable.FsyncAlways, CheckpointEvery: -1})
	if err != nil {
		return nil, err
	}
	reg, err := registry.New(registry.Options{Dir: filepath.Join(dir, "sites"), Durable: store})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{reg: reg, ms: server.NewMulti(reg), addr: ln.Addr().String()}
	p.hs = p.ms.HTTPServer("")
	go p.hs.Serve(ln)
	return p, nil
}

func (p *inproc) stop() {
	p.hs.Close()
	p.reg.Close()
}

// memWriter is an in-memory http.ResponseWriter for direct handler
// calls.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
func (w *memWriter) reset() {
	w.header, w.status = http.Header{}, 0
	w.body.Reset()
}

// traceOp is one replayed operation: a read from the request table or,
// on a writer workload, a re-install of the draft policy.
type traceOp struct {
	req   *request
	draft []byte // non-nil: a write
}

// traceWriteEvery is how many reads the traced replay of a writer
// workload sends between writes. The paced writer's real share (5/s
// beside thousands of reads) would give the write probes a handful of
// samples.
const traceWriteEvery = 30

// healthzPerBlock is how many /healthz round trips and direct handler
// calls each block of the replay adds to the transport-floor sample.
const healthzPerBlock = 10

// tracer holds the state of one traced pass.
type tracer struct {
	c     *corpus
	p     *inproc
	o     *oracle
	rec   recorder
	sites []*core.Site       // resident tenants' sites
	refs  []*reffile.RefFile // the reference file each tenant serves
	ctx   context.Context

	verify        verifier // answers over HTTP; its counts feed the ratios
	verifyHandler verifier // answers of direct handler calls
	res           traceResult

	dcache   *decision.Cache
	compiled map[string]*compiledPref // bench-side conversions, by preference text
	ids      map[*reldb.DB]map[string]int64

	// Exact counts.
	reqBytes, respBytes, httpOps int
	convLookups, convHitReqs     int
	execRows, execMatches        int64

	wp *writeProbe
}

type compiledPref struct {
	rs    *appel.Ruleset
	stmts []reldb.Statement
}

// prefText is the preference text the server evaluates for r: the
// named level's text for a GET, the body for a POST. Unique bodies get
// a fresh number, as on the wire.
func (t *tracer) prefText(r *request) string {
	switch {
	case r.unique:
		var b []byte
		b = append(b, r.head...)
		b = append(b, fmt.Sprint(uniqueCounter.Add(1))...)
		b = append(b, r.tail...)
		return string(b)
	case r.head != nil:
		return string(r.head)
	}
	return t.c.levels[r.level].XML
}

// compile is the bench-side copy of the conversion pipeline, for probes
// of a preference whose conversion the site served from its cache: a
// repeated text, so the memo stays as small as the workload's set of
// named levels and resident preferences.
func (t *tracer) compile(site *core.Site, pref string) (*compiledPref, error) {
	if cp, ok := t.compiled[pref]; ok {
		return cp, nil
	}
	rs, err := appel.Parse(pref)
	if err != nil {
		return nil, err
	}
	queries, err := sqlgen.TranslateRulesetOptimized(rs, "SELECT ? AS policy_id")
	if err != nil {
		return nil, err
	}
	cp := &compiledPref{rs: rs}
	for _, q := range queries {
		stmt, err := site.DB().Prepare(q.SQL)
		if err != nil {
			return nil, err
		}
		cp.stmts = append(cp.stmts, stmt)
	}
	t.compiled[pref] = cp
	return cp, nil
}

// policyID reads a policy's id from the optimized schema's Policy
// table of the snapshot db belongs to.
func (t *tracer) policyID(db *reldb.DB, name string) (int64, error) {
	m := t.ids[db]
	if m == nil {
		rows, err := db.Query("SELECT policy_id, name FROM Policy")
		if err != nil {
			return 0, err
		}
		m = map[string]int64{}
		for _, row := range rows.Data {
			id, _ := row[0].AsInt()
			m[row[1].AsString()] = id
		}
		// A write publishes a new DB; keep only recent snapshots' ids.
		if len(t.ids) >= 2*hotTenants {
			t.ids = nil
		}
		if t.ids == nil {
			t.ids = map[*reldb.DB]map[string]int64{}
		}
		t.ids[db] = m
	}
	id, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("policy %q is not in the Policy table", name)
	}
	return id, nil
}

// exec runs a preference's prepared rule queries against one policy
// until a rule fires, as core's SQL engine does, under one span.
func (t *tracer) exec(db *reldb.DB, cp *compiledPref, policy string, parent, op int32) error {
	id, err := t.policyID(db, policy)
	if err != nil {
		return err
	}
	before := db.Stats()
	s := t.rec.begin("reldb.exec", parent, op)
	for _, stmt := range cp.stmts {
		fired, err := db.QueryExistsStmtCtx(t.ctx, stmt, reldb.Int(id))
		if err != nil {
			return err
		}
		if fired {
			break
		}
	}
	t.rec.end(s)
	after := db.Stats()
	t.execRows += after.RowsScanned - before.RowsScanned + after.IndexLookups - before.IndexLookups
	t.execMatches++
	return nil
}

// convert replays the conversion pipeline under one span per stage.
func (t *tracer) convert(site *core.Site, pref string, parses int, parent, op int32) (*compiledPref, error) {
	cp := &compiledPref{}
	var err error
	for i := 0; i < parses; i++ {
		s := t.rec.begin("appel.parse", parent, op)
		cp.rs, err = appel.Parse(pref)
		t.rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	s := t.rec.begin("sqlgen.translate", parent, op)
	queries, err := sqlgen.TranslateRulesetOptimized(cp.rs, "SELECT ? AS policy_id")
	t.rec.end(s)
	if err != nil {
		return nil, err
	}
	db := site.DB()
	s = t.rec.begin("reldb.prepare", parent, op)
	for _, q := range queries {
		stmt, err := db.Prepare(q.SQL)
		if err != nil {
			return nil, err
		}
		cp.stmts = append(cp.stmts, stmt)
	}
	t.rec.end(s)
	return cp, nil
}

func convMisses(site *core.Site) int64 {
	_, misses, _ := site.ConversionCacheStats()
	return misses
}

// directCheck replays one check target as a direct core call followed
// by the leaf probes of the work that call did.
func (t *tracer) directCheck(r *request, pol int, cookie bool, pref string, parent, op int32) error {
	tn := &t.c.tenants[r.tenant]
	site, rf := t.sites[r.tenant], t.refs[r.tenant]
	target, call := tn.uris[pol], site.CheckURICtx
	if cookie {
		target, call = tn.cookies[pol], site.CheckCookieCtx
	}
	m0 := convMisses(site)
	cs := t.rec.begin("core.check", parent, op)
	res, err := call(t.ctx, pref, target, core.EngineSQL)
	t.rec.end(cs)
	if err != nil {
		return err
	}
	parses := int(convMisses(site) - m0)
	t.res.attempted++
	if want := t.o.behavior[r.tenant][pol][r.level]; res.PolicyName != tn.policies[pol] || res.Allowed != (want != "block") {
		t.res.failed++
	}

	s := t.rec.begin("reffile.lookup", cs, op)
	if cookie {
		rf.PolicyForCookie(target)
	} else {
		rf.PolicyForURI(target)
	}
	t.rec.end(s)

	// What the site converted, the probes convert again: a text its
	// conversion cache missed was parsed once for the fast path and, if
	// the fast path fell back to the engine, parsed again, translated
	// and prepared for it.
	var cp *compiledPref
	fellBack := res.Decision != nil && !res.Decision.Cached
	switch {
	case parses > 0 && fellBack:
		cp, err = t.convert(site, pref, parses, cs, op)
	case parses > 0:
		s := t.rec.begin("appel.parse", cs, op)
		rs, perr := appel.Parse(pref)
		t.rec.end(s)
		cp, err = &compiledPref{rs: rs}, perr
	default:
		cp, err = t.compile(site, pref)
	}
	if err != nil {
		return err
	}
	s = t.rec.begin("compact.safe", cs, op)
	if compact.SummarySafe(cp.rs) {
		compact.BlockRules(cp.rs)
	}
	t.rec.end(s)
	if res.FastPath {
		return nil
	}
	key := decision.Key{Gen: res.Generation, Engine: uint8(core.EngineSQL), Policy: res.PolicyName, Pref: pref}
	if !fellBack {
		t.dcache.Put(key, decision.Outcome{Behavior: res.Decision.Behavior})
	}
	s = t.rec.begin("decision.get", cs, op)
	t.dcache.Get(key)
	t.rec.end(s)
	if fellBack {
		return t.exec(site.DB(), cp, res.PolicyName, cs, op)
	}
	return nil
}

// direct replays one read as direct calls: the registry lookup, the
// core call(s), and the leaf probes.
func (t *tracer) direct(r *request, parent, op int32) error {
	tn := &t.c.tenants[r.tenant]
	s := t.rec.begin("registry.get", parent, op)
	_, _, err := t.p.reg.GetWithJournal(tn.name)
	t.rec.end(s)
	if err != nil {
		return err
	}
	pref := t.prefText(r)
	if r.kind == kindCheck {
		if r.urlPol >= 0 {
			if err := t.directCheck(r, r.urlPol, false, pref, parent, op); err != nil {
				return err
			}
		}
		if r.cookiePol >= 0 {
			return t.directCheck(r, r.cookiePol, true, pref, parent, op)
		}
		return nil
	}
	site := t.sites[r.tenant]
	cs := t.rec.begin("core.matchall", parent, op)
	decisions, err := site.MatchAllCtx(t.ctx, pref, core.EngineSQL)
	t.rec.end(cs)
	if err != nil {
		return err
	}
	t.res.attempted++
	got := map[string]string{}
	for _, d := range decisions {
		got[d.PolicyName] = d.Behavior
	}
	ok := len(got) == nPolicies
	for p, name := range tn.policies {
		ok = ok && got[name] == t.o.behavior[r.tenant][p][r.level]
	}
	if !ok {
		t.res.failed++
	}
	// The batch converts the preference once (racing workers may each
	// do it) and executes it against every policy; the probes replay
	// one conversion and the 29 executions serially.
	cp, err := t.convert(site, pref, 1, cs, op)
	if err != nil {
		return err
	}
	for _, name := range tn.policies {
		if err := t.exec(site.DB(), cp, name, cs, op); err != nil {
			return err
		}
	}
	return nil
}

// httpOp sends one operation over the loopback connection under a root
// span and returns whether the answer was right.
func (t *tracer) httpOp(k *conn, o *traceOp, op int32) (time.Duration, error) {
	if o.draft != nil {
		root := t.rec.begin("server.roundtrip", 0, op)
		t0 := time.Now()
		_, installed, err := reinstallDraft(k.doer, t.c, o.draft)
		took := time.Since(t0)
		t.rec.end(root)
		t.res.attempted++
		if !installed {
			t.res.failed++
		}
		return took, err
	}
	site := t.sites[o.req.tenant]
	m0 := convMisses(site)
	req := k.render(o.req)
	root := t.rec.begin("server.roundtrip", 0, op)
	t0 := time.Now()
	status, body, respBytes, err := k.roundTrip(req)
	took := time.Since(t0)
	t.rec.end(root)
	if err != nil {
		return 0, err
	}
	t.res.attempted++
	if !t.verify.verify(o.req, status, body) {
		t.res.failed++
	}
	t.httpOps++
	t.reqBytes += len(req)
	t.respBytes += respBytes
	t.convLookups++
	if convMisses(site) == m0 {
		t.convHitReqs++
	}
	return took, nil
}

// handlerOp calls the HTTP handler directly, with no socket: what is
// left of a round trip once this is subtracted is transport.
func (t *tracer) handlerOp(mw *memWriter, o *traceOp, parent, op int32) error {
	call := func(method, path string, body []byte) (int, error) {
		req, err := http.NewRequestWithContext(t.ctx, method, "http://bench"+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		mw.reset()
		t.p.ms.ServeHTTP(mw, req)
		return mw.status, nil
	}
	t.res.attempted++
	if o.draft != nil {
		s := t.rec.begin("server.handler", parent, op)
		_, installed, err := reinstallDraft(call, t.c, o.draft)
		t.rec.end(s)
		if !installed {
			t.res.failed++
		}
		return err
	}
	var body []byte
	if o.req.head != nil {
		body = []byte(t.prefText(o.req))
	}
	s := t.rec.begin("server.handler", parent, op)
	status, err := call(o.req.method, o.req.path, body)
	t.rec.end(s)
	if err != nil {
		return err
	}
	if !t.verifyHandler.verify(o.req, status, mw.body.Bytes()) {
		t.res.failed++
	}
	return nil
}

// tracedPass replays the first traceOps operations of the workload's
// connection-0 stream against an in-process server, three ways.
func tracedPass(cfg *config, c *corpus, w *workloadSpec) (*traceResult, error) {
	dir := filepath.Join(cfg.runDir, "trace-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	p, err := startInproc(dir)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	k, err := dial(p.addr)
	if err != nil {
		return nil, err
	}
	defer k.close()
	table := w.table(c)
	if _, err := seedServer(k, c, w); err != nil {
		return nil, err
	}
	if err := warmUp(k, c, w, table); err != nil {
		return nil, err
	}
	o, err := newOracle(k, c, w.tenantsOf(c), levelsOf(table))
	if err != nil {
		return nil, err
	}
	t := &tracer{c: c, p: p, o: o, ctx: context.Background(),
		verify: verifier{c: c, o: o}, verifyHandler: verifier{c: c, o: o},
		dcache:   decision.New(0),
		compiled: map[string]*compiledPref{},
		res:      traceResult{metrics: map[string]metric{}},
	}
	t.rec.t0 = time.Now()
	for ti := 0; ti < w.tenantsOf(c); ti++ {
		site, err := p.reg.Get(c.tenants[ti].name)
		if err != nil {
			return nil, err
		}
		rf, err := reffile.Parse(string(c.tenants[ti].refXML))
		if err != nil {
			return nil, err
		}
		t.sites, t.refs = append(t.sites, site), append(t.refs, rf)
	}

	// The operations: connection 0's stream, with writes interleaved on
	// a writer workload.
	n := max(w.traceOps/cfg.traceScale, 20)
	s := newSampler(c, w, 0)
	var ops []traceOp
	for i, writes := 0, 0; i < n; i++ {
		if w.writer && i%traceWriteEvery == traceWriteEvery-1 {
			ops = append(ops, traceOp{draft: c.drafts[writes%len(c.drafts)]})
			writes++
			continue
		}
		ops = append(ops, traceOp{req: &table[w.draw(s)]})
	}

	if w.writer {
		if t.wp, err = newWriteProbe(c, &t.rec, filepath.Join(dir, "probe")); err != nil {
			return nil, err
		}
		defer t.wp.close()
	}

	// The replay goes block by block, so that every way an operation is
	// measured happens within a few milliseconds of the others and
	// drift in the machine's load falls on all of them alike. Per
	// block: (1) over HTTP, twice, once with the recorder off and once
	// on, alternating which goes first; (2) the transport floor, what a
	// round trip costs beyond its handler, on the cheapest endpoint;
	// (3) the handler, called directly; (4) the layers, called directly.
	var decHits, decMisses int64
	decisionStats := func() (hits, misses int64) {
		for _, site := range t.sites {
			h, m, _, _ := site.DecisionCacheStats()
			hits, misses = hits+h, misses+m
		}
		return hits, misses
	}
	var onUS, offUS, healthRT, healthHandler []float64
	roots := make([]int32, len(ops))
	mw := &memWriter{}
	const block = 50
	for lo := 0; lo < len(ops); lo += block {
		hi := min(lo+block, len(ops))
		h0, m0 := decisionStats()
		for pass := 0; pass < 2; pass++ {
			t.rec.on = (pass == 0) == ((lo/block)%2 == 0)
			for i := lo; i < hi; i++ {
				next := int32(len(t.rec.spans) + 1)
				took, err := t.httpOp(k, &ops[i], int32(i+1))
				if err != nil {
					return nil, fmt.Errorf("traced replay over HTTP: %w", err)
				}
				if t.rec.on {
					roots[i] = next
					onUS = append(onUS, us(took))
				} else {
					offUS = append(offUS, us(took))
				}
			}
		}
		t.rec.on = true
		h1, m1 := decisionStats()
		decHits, decMisses = decHits+h1-h0, decMisses+m1-m0

		for i := 0; i < healthzPerBlock; i++ {
			t0 := time.Now()
			if _, err := k.expect("GET", "/healthz", nil, 200); err != nil {
				return nil, err
			}
			healthRT = append(healthRT, us(time.Since(t0)))
			req, err := http.NewRequest("GET", "http://bench/healthz", nil)
			if err != nil {
				return nil, err
			}
			mw.reset()
			t0 = time.Now()
			p.ms.ServeHTTP(mw, req)
			healthHandler = append(healthHandler, us(time.Since(t0)))
		}

		for i := lo; i < hi; i++ {
			op := int32(i + 1)
			hs := int32(len(t.rec.spans) + 1)
			if err := t.handlerOp(mw, &ops[i], roots[i], op); err != nil {
				return nil, fmt.Errorf("traced replay of the handler: %w", err)
			}
			if ops[i].draft != nil {
				err = t.wp.write(ops[i].draft, hs, op)
			} else {
				err = t.direct(ops[i].req, hs, op)
			}
			if err != nil {
				return nil, fmt.Errorf("traced replay of the layers: %w", err)
			}
		}
	}
	floorUS := median(healthRT) - median(healthHandler)
	parts, fast := t.verify.parts, t.verify.fast
	if t.wp != nil {
		if err := t.wp.finish(t.res.metrics); err != nil {
			return nil, err
		}
	}
	if err := enginesProbe(cfg, c, &t.rec, &t.res); err != nil {
		return nil, err
	}

	// Metrics from the spans.
	t.res.spans = t.rec.spans
	perOp := spanTotals(t.res.spans)
	m := t.res.metrics
	// Each layer's time: per span name, the median over operations of
	// the time the operation spent in spans of that name.
	layer := func(span, unit string) {
		vals := perOp[span]
		if unit == "us" {
			for i := range vals {
				vals[i] /= 1e3
			}
		}
		m[span+"_"+unit] = metric{median(vals), unit, len(vals)}
	}
	for _, span := range []string{
		"server.roundtrip", "registry.get", "core.check", "core.matchall",
		"reffile.lookup", "compact.safe", "appel.parse", "sqlgen.translate",
		"reldb.prepare", "reldb.exec", "p3p.parse", "shred.policy",
		"appelengine.match", "sqlengine.match", "xtable.match", "xquery.match",
	} {
		layer(span, "us")
	}
	layer("decision.get", "ns")
	// server.self_us: per operation, the round trip less the direct
	// registry and core calls it contains.
	var selfUS []float64
	below := map[int32]float64{}
	for i := range t.res.spans {
		sp := &t.res.spans[i]
		switch sp.Name {
		case "registry.get", "core.check", "core.matchall", "durable.fsync":
			below[sp.Op] += us(sp.dur())
		}
	}
	for i := range ops {
		selfUS = append(selfUS, max(us(t.res.spans[roots[i]-1].dur())-below[int32(i+1)], 0))
	}
	m["server.self_us"] = metric{median(selfUS), "us", len(selfUS)}
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["server.req_bytes"] = metric{ratio(t.reqBytes, t.httpOps), "B", t.httpOps}
	m["server.resp_bytes"] = metric{ratio(t.respBytes, t.httpOps), "B", t.httpOps}
	m["core.fastpath_ratio"] = metric{ratio(fast, parts), "ratio", parts}
	m["core.decision_hit_ratio"] = metric{ratio(int(decHits), int(decHits+decMisses)), "ratio", int(decHits + decMisses)}
	m["core.conv_hit_ratio"] = metric{ratio(t.convHitReqs, t.convLookups), "ratio", t.convLookups}
	m["reldb.rows_per_match"] = metric{ratio(int(t.execRows), int(t.execMatches)), "count", int(t.execMatches)}
	handler := perOp["server.handler"]
	rt := m["server.roundtrip_us"].Value
	m["trace.unattributed_ratio"] = metric{math.Abs(rt-floorUS-median(handler)/1e3) / rt, "ratio", len(handler)}
	m["trace.overhead_ratio"] = metric{median(onUS) / median(offUS), "ratio", len(onUS)}
	return &t.res, nil
}

// spanTotals sums, per span name, the time each operation spent in
// spans of that name (in ns), one value per operation that has any.
func spanTotals(spans []span) map[string][]float64 {
	type key struct {
		name string
		op   int32
	}
	sums := map[key]float64{}
	var order []key
	for i := range spans {
		k := key{spans[i].Name, spans[i].Op}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += float64(spans[i].dur())
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], sums[k])
	}
	return out
}

// printSelfTimes prints where the replayed operations' time went: per
// span name, the total self time (a span's duration less what its child
// spans cover; children are replays, not nested in wall time, so their
// sum is capped at the parent's duration) and its share of the round
// trips' total. The engine-probe spans have no round trip and are left
// out.
func printSelfTimes(workload string, spans []span) {
	children := make([]float64, len(spans)+1)
	for i := range spans {
		children[spans[i].Parent] += float64(spans[i].dur())
	}
	self := map[string]float64{}
	calls := map[string]int{}
	var total float64
	for i := range spans {
		if spans[i].Op >= engineOpBase {
			continue
		}
		d := float64(spans[i].dur())
		self[spans[i].Name] += d - min(children[spans[i].ID], d)
		calls[spans[i].Name]++
		if spans[i].Parent == 0 {
			total += d
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("%-14s self time by span, share of %.1f ms of round trips\n", workload, total/1e6)
	for _, name := range names {
		fmt.Printf("%-14s   %-22s %10.1f ms %6.1f%%  spans=%d\n", workload, name, self[name]/1e6, 100*self[name]/total, calls[name])
	}
}

// perLayer assembles the per-layer metric set: the traced pass's
// metrics plus the generator and restart numbers of the child run that
// preceded it.
func perLayer(out *runOutcome, tr *traceResult) map[string]metric {
	m := map[string]metric{}
	for name, v := range tr.metrics {
		m[name] = v
	}
	// The write path's probes run on a writer workload only; elsewhere
	// the layer does no work and reports zero.
	for _, name := range []string{"core.apply_us", "core.prewarm_us", "core.prewarm_evaluated", "prefindex.select_ratio",
		"durable.append_us", "durable.fsync_us", "durable.log_bytes_per_user_byte", "durable.replay_ms"} {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unitOf(name), 0}
		}
	}
	share, late := loadgenMetrics(out)
	m["loadgen.cpu_share"] = metric{share, "ratio", 1}
	m["loadgen.write_late_ms"] = metric{late, "ms", len(out.win.writeLateMS)}
	m["durable.restart_ms"] = metric{out.restartMS, "ms", 1}
	attempted, failed := out.win.attempted+tr.attempted, out.win.failed+tr.failed
	m["fail_ratio"] = metric{float64(failed) / float64(attempted), "ratio", attempted}
	return m
}

// unitOf gives the unit of a write-path metric a read-only workload
// reports as zero.
func unitOf(name string) string {
	switch name {
	case "core.prewarm_evaluated":
		return "count"
	case "prefindex.select_ratio", "durable.log_bytes_per_user_byte":
		return "ratio"
	case "durable.replay_ms":
		return "ms"
	}
	return "us"
}
