package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p3pdb/internal/workload"
)

// writeInterval paces the churn writer: 5 writes/s, whatever a write
// costs, so readers see the same write pressure on every commit.
const writeInterval = 200 * time.Millisecond

// Generator-hygiene limits: past these the numbers describe the
// generator or the scheduler, not p3pserver, and the run is refused.
const (
	maxLoadgenCPUShare = 0.50
	maxWriteLateP90MS  = 20.0
)

// oracle holds the expected behavior of every (tenant, policy, JRC
// level), computed by the native APPEL engine on the server under test:
// the four engines are each other's oracle, and the measured requests
// run the SQL engine.
type oracle struct {
	behavior [][][]string // [tenant][policy][level]
}

// newOracle asks the native engine for every policy of the first
// tenants tenants at the given levels.
func newOracle(k *conn, c *corpus, tenants int, levels []int) (*oracle, error) {
	o := &oracle{behavior: make([][][]string, tenants)}
	for ti := 0; ti < tenants; ti++ {
		o.behavior[ti] = make([][]string, nPolicies)
		t := &c.tenants[ti]
		for p, name := range t.policies {
			o.behavior[ti][p] = make([]string, len(workload.Levels))
			path := "/sites/" + t.name + "/matchpolicy?engine=native&policy=" + url.QueryEscape(name)
			for _, lv := range levels {
				body, err := k.expect("POST", path, []byte(c.levels[lv].XML), 200)
				if err != nil {
					return nil, fmt.Errorf("oracle: %w", err)
				}
				var d struct{ Behavior string }
				if err := json.Unmarshal(body, &d); err != nil || d.Behavior == "" {
					return nil, fmt.Errorf("oracle: %s: unreadable decision %q", path, body)
				}
				o.behavior[ti][p][lv] = d.Behavior
			}
		}
	}
	return o, nil
}

// levelsOf lists the JRC levels a request table uses.
func levelsOf(table []request) []int {
	seen := map[int]bool{}
	for i := range table {
		seen[table[i].level] = true
	}
	var out []int
	for lv := range seen {
		out = append(out, lv)
	}
	sort.Ints(out)
	return out
}

// checkPart and checkReply are the fields of a /check answer the
// benchmark verifies and attributes.
type checkPart struct {
	Allowed    bool   `json:"allowed"`
	FastPath   bool   `json:"fastPath"`
	PolicyName string `json:"policyName"`
	Decision   *struct {
		Behavior string `json:"behavior"`
	} `json:"decision"`
}

type checkReply struct {
	Allowed    bool       `json:"allowed"`
	Generation uint64     `json:"generation"`
	URL        *checkPart `json:"url"`
	Cookie     *checkPart `json:"cookie"`
}

type matchAllReply struct {
	Decisions []struct {
		Behavior   string `json:"behavior"`
		PolicyName string `json:"policyName"`
	} `json:"decisions"`
	Errors []string `json:"errors"`
}

// verifier checks one connection's answers; lastGen enforces that the
// snapshot generation a connection sees of a tenant never goes
// backwards.
type verifier struct {
	c       *corpus
	o       *oracle
	lastGen [hotTenants]uint64
	check   checkReply
	all     matchAllReply
	// parts counts the check parts (and matchall decisions) seen, fast
	// those the compact fast path answered; the traced pass reports
	// their ratio.
	parts, fast int
}

func (v *verifier) partOK(part *checkPart, r *request, pol int) bool {
	if pol < 0 {
		return part == nil
	}
	if part == nil || part.PolicyName != v.c.tenants[r.tenant].policies[pol] {
		return false
	}
	v.parts++
	if part.FastPath {
		v.fast++
	}
	// The fast path carries no decision; it may only ever allow.
	want := v.o.behavior[r.tenant][pol][r.level]
	if part.Decision == nil {
		return part.FastPath && part.Allowed && want != "block"
	}
	return part.Decision.Behavior == want && part.Allowed == (want != "block")
}

// verify reports whether the server's answer to r is the right one.
func (v *verifier) verify(r *request, status int, body []byte) bool {
	switch r.kind {
	case kindCheck:
		if status != 200 {
			return false
		}
		v.check = checkReply{}
		if json.Unmarshal(body, &v.check) != nil {
			return false
		}
		if v.check.Generation < v.lastGen[r.tenant] {
			return false
		}
		v.lastGen[r.tenant] = v.check.Generation
		urlOK := v.partOK(v.check.URL, r, r.urlPol)
		cookieOK := v.partOK(v.check.Cookie, r, r.cookiePol)
		allowed := (v.check.URL == nil || v.check.URL.Allowed) && (v.check.Cookie == nil || v.check.Cookie.Allowed)
		return urlOK && cookieOK && v.check.Allowed == allowed
	case kindMatchAll:
		if status != 200 {
			return false
		}
		v.all.Decisions, v.all.Errors = v.all.Decisions[:0], nil
		if json.Unmarshal(body, &v.all) != nil || len(v.all.Errors) > 0 || len(v.all.Decisions) != nPolicies {
			return false
		}
		t := &v.c.tenants[r.tenant]
		byName := map[string]string{}
		for _, d := range v.all.Decisions {
			byName[d.PolicyName] = d.Behavior
		}
		v.parts += nPolicies
		for p, name := range t.policies {
			if byName[name] != v.o.behavior[r.tenant][p][r.level] {
				return false
			}
		}
		return true
	}
	return false
}

// uniqueCounter numbers never-repeated preference bodies. One counter
// serves warm-up, window and traced replay, so no number is ever sent
// twice to one server. It starts at ten digits so that every body of a
// level has the same length and byte counts repeat exactly.
var uniqueCounter atomic.Int64

func init() { uniqueCounter.Store(1_000_000_000) }

// render writes r's bytes into the connection's reused buffer.
func (k *conn) render(r *request) []byte {
	if r.unique {
		var num [20]byte
		n := strconv.AppendInt(num[:0], uniqueCounter.Add(1), 10)
		k.wbuf = appendRequest(k.wbuf[:0], r.method, r.path, r.head, n, r.tail)
	} else {
		k.wbuf = appendRequest(k.wbuf[:0], r.method, r.path, r.head)
	}
	return k.wbuf
}

// seedServer creates the workload's tenants over the admin API and
// installs policies, reference files and (churn) resident preferences.
// It returns one sample per policy install.
func seedServer(k *conn, c *corpus, w *workloadSpec) ([]sample, error) {
	var installs []sample
	for ti := 0; ti < w.tenantsOf(c); ti++ {
		t := &c.tenants[ti]
		base := "/sites/" + t.name
		if _, err := k.expect("PUT", base, nil, 201); err != nil {
			return nil, err
		}
		for p := range t.policies {
			t0 := time.Now()
			if _, err := k.expect("POST", base+"/policies", t.policyXML[p], 201); err != nil {
				return nil, err
			}
			d := time.Since(t0)
			installs = append(installs, sample{took: d, busy: d})
		}
		if _, err := k.expect("POST", base+"/reference", t.refXML, 204); err != nil {
			return nil, err
		}
	}
	if w.writer {
		// The draft exists from the start, so every paced write is the
		// same DELETE-then-POST pair.
		if _, err := k.expect("POST", "/sites/"+c.tenants[0].name+"/policies", c.drafts[len(c.drafts)-1], 201); err != nil {
			return nil, err
		}
	}
	if w.resident {
		base := "/sites/" + c.tenants[0].name + "/prefs?engines=sql&name=resident-"
		for i, body := range c.resident {
			if _, err := k.expect("POST", base+strconv.Itoa(i), body, 201); err != nil {
				return nil, err
			}
		}
	}
	return installs, nil
}

// warmUp sends a fixed number of requests: first every distinct
// repeatable request once, so that a cache that can hold the working
// set does, then warmOps sampled ones.
func warmUp(k *conn, c *corpus, w *workloadSpec, table []request) error {
	send := func(r *request) error {
		status, body, _, err := k.roundTrip(k.render(r))
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("warm-up %s %s: status %d: %s", r.method, r.path, status, bytes.TrimSpace(body))
		}
		return nil
	}
	for i := range table {
		if !table[i].unique {
			if err := send(&table[i]); err != nil {
				return err
			}
		}
	}
	s := newSampler(c, w, 100)
	for i := 0; i < w.warmOps; i++ {
		if err := send(&table[w.draw(s)]); err != nil {
			return err
		}
	}
	return nil
}

// setUp is launch → ready → seeded → warmed, the interval setup_s
// times. It also returns the seeding's policy-install samples.
func setUp(bin, dir string, c *corpus, w *workloadSpec, table []request) (*child, float64, []sample, error) {
	start := time.Now()
	ch, err := launch(bin, dir)
	if err != nil {
		return nil, 0, nil, err
	}
	var installs []sample
	k, err := dial(ch.addr)
	if err == nil {
		defer k.close()
		if installs, err = seedServer(k, c, w); err == nil {
			err = warmUp(k, c, w, table)
		}
	}
	if err != nil {
		ch.kill()
		return nil, 0, nil, err
	}
	return ch, time.Since(start).Seconds(), installs, nil
}

// sample is one completed operation: when it completed, relative to the
// window start, and how long it took. A write also records how long the
// connection was busy with it, which for a paced write is less than
// took: took runs from when the write was due, busy from when it was
// sent.
type sample struct {
	at, took, busy time.Duration
}

// windowResult is what one measured window observed.
type windowResult struct {
	seconds           float64
	slice             time.Duration // the window is slices of this length
	childCPUMS        []float64     // the child's cumulative CPU at each slice boundary
	reads             []sample
	writes            []sample
	writeLateMS       []float64 // how long after its due time each write was sent
	attempted, failed int
	loadgenCPUMS      float64
	rssMB             float64
	// draft is the body of the last acknowledged draft install; nil when
	// the last acknowledged write on it was its DELETE.
	draft []byte
}

// connResult is one connection's share of a window.
type connResult struct {
	samples           []sample
	late              []float64
	attempted, failed int
	draft             []byte
	err               error
}

// reader is the closed loop: the next request is sent only when the
// previous answer has arrived.
func reader(k *conn, c *corpus, w *workloadSpec, table []request, o *oracle, stream int, start, deadline time.Time, res *connResult) {
	v := &verifier{c: c, o: o}
	s := newSampler(c, w, stream)
	res.samples = make([]sample, 0, 1<<16)
	for {
		r := &table[w.draw(s)]
		req := k.render(r)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		status, body, _, err := k.roundTrip(req)
		done := time.Now()
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			if res.err = k.redial(); res.err != nil {
				return
			}
		case !v.verify(r, status, body):
			res.failed++
		case done.Before(deadline):
			res.samples = append(res.samples, sample{at: done.Sub(start), took: done.Sub(t0)})
		}
	}
}

// reinstallDraft is one write of the churn writer: DELETE the draft
// policy, then POST its next body, through whatever do sends requests
// with. It reports whether the DELETE and then the POST were
// acknowledged.
func reinstallDraft(do func(method, path string, body []byte) (int, error), c *corpus, body []byte) (deleted, installed bool, err error) {
	base := "/sites/" + c.tenants[0].name + "/policies"
	status, err := do("DELETE", base+"/"+draftName, nil)
	if err != nil || status != 204 {
		return false, false, err
	}
	status, err = do("POST", base, body)
	return true, err == nil && status == 201, err
}

// doer adapts a connection to reinstallDraft.
func (k *conn) doer(method, path string, body []byte) (int, error) {
	status, _, err := k.send(method, path, body)
	return status, err
}

// writer is the paced open loop: write n is due at start + n×interval
// however long earlier writes took, and is timed from when it was due,
// so a stalled write also charges the writes queued behind it. One
// write re-installs the draft policy: DELETE, then POST of the next
// body.
func writer(k *conn, c *corpus, start, deadline time.Time, res *connResult) {
	res.draft = c.drafts[len(c.drafts)-1]
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * writeInterval)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		body := c.drafts[n%len(c.drafts)]
		sent := time.Now()
		res.late = append(res.late, ms(sent.Sub(due)))
		res.attempted++
		deleted, installed, err := reinstallDraft(k.doer, c, body)
		done := time.Now()
		if deleted {
			res.draft = nil
		}
		switch {
		case err != nil:
			res.failed++
			if res.err = k.redial(); res.err != nil {
				return
			}
		case !installed:
			res.failed++
		default:
			res.draft = body
			res.samples = append(res.samples, sample{at: done.Sub(start), took: done.Sub(due), busy: done.Sub(sent)})
		}
	}
}

// runWindow drives the load shape for the given duration: two
// keep-alive connections from this one process. Both are closed-loop
// readers, except that on a writer workload connection 1 is the paced
// writer.
func runWindow(ch *child, c *corpus, w *workloadSpec, table []request, o *oracle, window time.Duration) (*windowResult, error) {
	const conns = 2
	ks := make([]*conn, conns)
	for i := range ks {
		k, err := dial(ch.addr)
		if err != nil {
			return nil, err
		}
		defer k.close()
		ks[i] = k
	}
	results := make([]connResult, conns)
	// One-second slices (a shorter window is one slice): the child's
	// CPU is read at every boundary, so that per-slice metrics exist.
	slices := max(int(window.Seconds()+0.5), 1)
	out := &windowResult{seconds: window.Seconds(), slice: window / time.Duration(slices), childCPUMS: make([]float64, slices+1)}
	var err error
	if out.childCPUMS[0], err = ch.cpuMillis(); err != nil {
		return nil, err
	}
	self0 := selfCPUMillis()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	var cpuErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= slices && cpuErr == nil; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * out.slice)))
			out.childCPUMS[i], cpuErr = ch.cpuMillis()
		}
	}()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if w.writer && ci == 1 {
				writer(ks[ci], c, start, deadline, &results[ci])
			} else {
				reader(ks[ci], c, w, table, o, ci, start, deadline, &results[ci])
			}
		}(ci)
	}
	wg.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	out.loadgenCPUMS = selfCPUMillis() - self0
	if out.rssMB, err = ch.peakRSSMB(); err != nil {
		return nil, err
	}
	for ci := range results {
		res := &results[ci]
		if res.err != nil {
			return nil, res.err
		}
		out.attempted += res.attempted
		out.failed += res.failed
		if w.writer && ci == 1 {
			out.writes, out.writeLateMS, out.draft = res.samples, res.late, res.draft
		} else {
			out.reads = append(out.reads, res.samples...)
		}
	}
	return out, nil
}

// crashCheck kills the child with SIGKILL, relaunches it on the same
// durable directory and requires every acknowledged policy write to be
// readable byte for byte: each seeded policy and, on a writer workload,
// the draft as last acknowledged. It returns the relaunch-to-ready time
// and how many policies were checked and did not read back.
func crashCheck(ch *child, c *corpus, w *workloadSpec, draft []byte) (restartMS float64, checked, lost int, err error) {
	bin, dir := ch.bin, ch.dir
	ch.kill()
	t0 := time.Now()
	nch, err := launch(bin, dir)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("relaunch after kill -9: %w", err)
	}
	restartMS = ms(time.Since(t0))
	*ch = *nch
	k, err := dial(ch.addr)
	if err != nil {
		return 0, 0, 0, err
	}
	defer k.close()
	readBack := func(t *tenant, name string, want []byte) error {
		status, body, err := k.send("GET", "/sites/"+t.name+"/policies/"+url.PathEscape(name))
		if err != nil {
			return err
		}
		checked++
		if want == nil && status != 404 || want != nil && (status != 200 || !bytes.Equal(body, want)) {
			lost++
		}
		return nil
	}
	for ti := 0; ti < w.tenantsOf(c); ti++ {
		t := &c.tenants[ti]
		for p, name := range t.policies {
			if err := readBack(t, name, t.policyXML[p]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	if w.writer {
		if err := readBack(&c.tenants[0], draftName, draft); err != nil {
			return 0, 0, 0, err
		}
	}
	return restartMS, checked, lost, nil
}

// runOutcome is one workload's untraced child-process run.
type runOutcome struct {
	setupSecs []float64
	installs  [][]sample // per set-up, the seeding's policy installs
	win       *windowResult
	restartMS float64
}

// runWorkload performs the set-ups, the oracle pass, the measured
// window and the crash check of one workload against fresh children.
func runWorkload(cfg *config, bin string, c *corpus, w *workloadSpec) (*runOutcome, error) {
	table := w.table(c)
	out := &runOutcome{}
	var ch *child
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()
	// Set-up runs cfg.setups times, each on a fresh child: the larger
	// half before the window (the last of those children is the one
	// measured) and the rest after it, so that one episode of outside
	// interference cannot cover them all.
	freshSetUp := func(i int) error {
		if ch != nil {
			ch.kill()
		}
		dir := filepath.Join(cfg.runDir, fmt.Sprintf("%s-%d", w.name, i))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var secs float64
		var installs []sample
		var err error
		if ch, secs, installs, err = setUp(bin, dir, c, w, table); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		out.setupSecs = append(out.setupSecs, secs)
		out.installs = append(out.installs, installs)
		return nil
	}
	before := (cfg.setups + 1) / 2
	for i := 0; i < before; i++ {
		if err := freshSetUp(i); err != nil {
			return nil, err
		}
	}

	k, err := dial(ch.addr)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(k, c, w.tenantsOf(c), levelsOf(table))
	k.close()
	if err != nil {
		return nil, err
	}
	if out.win, err = runWindow(ch, c, w, table, o, cfg.window); err != nil {
		return nil, fmt.Errorf("%s: window: %w", w.name, err)
	}
	restartMS, checked, lost, err := crashCheck(ch, c, w, out.win.draft)
	if err != nil {
		return nil, fmt.Errorf("%s: crash check: %w", w.name, err)
	}
	out.restartMS = restartMS
	out.win.attempted += checked
	out.win.failed += lost
	for i := before; i < cfg.setups; i++ {
		if err := freshSetUp(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}
