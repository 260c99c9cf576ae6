package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/p3p"
	"p3pdb/internal/p3p/basedata"
	"p3pdb/internal/reffile"
	"p3pdb/internal/reldb"
	"p3pdb/internal/shred"
)

// writeProbe replays churn's writes against the write path's layers as
// a chain of four sites, each doing everything the next one does plus
// one thing more, so that a span's self time is that one thing:
//
//	durable.fsync    journal, fsync=always, resident preferences
//	durable.append   journal, fsync=never,  resident preferences
//	core.prewarm     no journal,            resident preferences
//	core.apply       no journal,            no resident preferences
//
// Each span is the child of the one above it; p3p.parse (which the
// journal does and a direct ApplyBatch is handed) is a child of
// durable.append, and shred.policy a child of core.apply.
type writeProbe struct {
	rec                                    *recorder
	plain, resident, neverSite, alwaysSite *core.Site
	never, always                          *durable.Tenant
	plainUS, residentUS, neverUS, alwaysUS []float64
	parseUS                                []float64
	userBytes                              int
	logBytes0                              int64
	prewarm0                               core.PrewarmStats
	nextID                                 int
}

func newWriteProbe(c *corpus, rec *recorder, dir string) (*writeProbe, error) {
	wp := &writeProbe{rec: rec, nextID: 1 << 20}
	t := &c.tenants[0]
	docs := append(append([][]byte(nil), t.policyXML...), c.drafts[len(c.drafts)-1])
	// batchSite builds a site holding the tenant's policies, the draft,
	// the reference file and (resident) the registered preferences, in
	// one publish.
	batchSite := func(resident bool) (*core.Site, error) {
		site, err := core.NewSiteWithOptions(core.Options{})
		if err != nil {
			return nil, err
		}
		var muts []core.Mutation
		for _, doc := range docs {
			pols, err := p3p.ParsePolicies(string(doc))
			if err != nil {
				return nil, err
			}
			muts = append(muts, core.InstallPoliciesMutation(pols))
		}
		rf, err := reffile.Parse(string(t.refXML))
		if err != nil {
			return nil, err
		}
		muts = append(muts, core.InstallReferenceFileMutation(rf))
		for i := 0; resident && i < len(c.resident); i++ {
			m, err := core.RegisterPreferenceMutation(fmt.Sprintf("resident-%d", i), string(c.resident[i]), []string{"sql"})
			if err != nil {
				return nil, err
			}
			muts = append(muts, m)
		}
		return site, site.ApplyBatch(muts)
	}
	// journaledSite builds the same site write by write through a
	// journal, as seeding builds churn's tenant, so that the journal's
	// log is what that tenant's log is.
	journaledSite := func(jt *durable.Tenant) (*core.Site, error) {
		site, err := core.NewSiteWithOptions(core.Options{})
		if err != nil {
			return nil, err
		}
		for _, doc := range docs {
			if _, err := jt.InstallPolicyXML(site, string(doc)); err != nil {
				return nil, err
			}
		}
		if err := jt.InstallReferenceFileXML(site, string(t.refXML)); err != nil {
			return nil, err
		}
		for i, body := range c.resident {
			if err := jt.RegisterPreferenceXML(site, fmt.Sprintf("resident-%d", i), string(body), []string{"sql"}); err != nil {
				return nil, err
			}
		}
		return site, nil
	}
	journal := func(policy durable.FsyncPolicy) (*core.Site, *durable.Tenant, error) {
		// No automatic checkpoints: durable.replay_ms replays the log.
		store, err := durable.Open(filepath.Join(dir, policy.String()), durable.Options{Fsync: policy, CheckpointEvery: -1})
		if err != nil {
			return nil, nil, err
		}
		jt, err := store.OpenTenant("probe")
		if err != nil {
			return nil, nil, err
		}
		site, err := journaledSite(jt)
		if err != nil {
			jt.Close()
		}
		return site, jt, err
	}
	var err error
	if wp.plain, err = batchSite(false); err != nil {
		return nil, err
	}
	if wp.resident, err = batchSite(true); err != nil {
		return nil, err
	}
	if wp.neverSite, wp.never, err = journal(durable.FsyncNever); err != nil {
		return nil, err
	}
	if wp.alwaysSite, wp.always, err = journal(durable.FsyncAlways); err != nil {
		wp.never.Close()
		return nil, err
	}
	wp.logBytes0 = wp.always.Status().LogBytes
	wp.prewarm0, _ = wp.resident.PrewarmStats()
	return wp, nil
}

func (wp *writeProbe) close() {
	wp.never.Close()
	wp.always.Close()
}

// write replays one draft re-install on every site of the chain.
func (wp *writeProbe) write(doc []byte, parent, op int32) error {
	text := string(doc)
	logged := func(name string, parent int32, jt *durable.Tenant, site *core.Site) (int32, float64, error) {
		s := wp.rec.begin(name, parent, op)
		err := jt.RemovePolicy(site, draftName)
		if err == nil {
			_, err = jt.InstallPolicyXML(site, text)
		}
		wp.rec.end(s)
		return s, us(wp.rec.spans[s-1].dur()), err
	}
	applied := func(name string, parent int32, site *core.Site) (int32, float64, error) {
		// Each site gets its own parse, outside the span: a parsed
		// policy keys artifacts cached by the site that installed it.
		pols, err := p3p.ParsePolicies(text)
		if err != nil {
			return 0, 0, err
		}
		s := wp.rec.begin(name, parent, op)
		err = site.ApplyBatch([]core.Mutation{core.RemovePolicyMutation(draftName)})
		if err == nil {
			err = site.ApplyBatch([]core.Mutation{core.InstallPoliciesMutation(pols)})
		}
		wp.rec.end(s)
		return s, us(wp.rec.spans[s-1].dur()), err
	}
	fsync, always, err := logged("durable.fsync", parent, wp.always, wp.alwaysSite)
	if err != nil {
		return err
	}
	appendSpan, never, err := logged("durable.append", fsync, wp.never, wp.neverSite)
	if err != nil {
		return err
	}
	s := wp.rec.begin("p3p.parse", appendSpan, op)
	pols, err := p3p.ParsePolicies(text)
	wp.rec.end(s)
	if err != nil {
		return err
	}
	parse := us(wp.rec.spans[s-1].dur())
	prewarm, resident, err := applied("core.prewarm", appendSpan, wp.resident)
	if err != nil {
		return err
	}
	apply, plain, err := applied("core.apply", prewarm, wp.plain)
	if err != nil {
		return err
	}
	wp.nextID++
	s = wp.rec.begin("shred.policy", apply, op)
	_, err1 := shred.BuildOptimizedFragment(basedata.Default(), pols[0], wp.nextID)
	_, err2 := shred.BuildGenericFragment(basedata.Default(), pols[0], wp.nextID)
	wp.rec.end(s)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	wp.alwaysUS, wp.neverUS = append(wp.alwaysUS, always), append(wp.neverUS, never)
	wp.residentUS, wp.plainUS = append(wp.residentUS, resident), append(wp.plainUS, plain)
	wp.parseUS = append(wp.parseUS, parse)
	wp.userBytes += len(doc)
	return nil
}

// replayRepeats is how many times the log is replayed; durable.replay_ms
// is the median.
const replayRepeats = 5

// finish derives the write path's metrics: each layer's time is the
// median, over the replayed writes, of its span less the span below it.
func (wp *writeProbe) finish(m map[string]metric) error {
	n := len(wp.plainUS)
	less := func(a []float64, bs ...[]float64) float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i]
			for _, b := range bs {
				d[i] -= b[i]
			}
		}
		return max(median(d), 0)
	}
	m["core.apply_us"] = metric{median(wp.plainUS), "us", n}
	m["core.prewarm_us"] = metric{less(wp.residentUS, wp.plainUS), "us", n}
	m["durable.append_us"] = metric{less(wp.neverUS, wp.residentUS, wp.parseUS), "us", n}
	m["durable.fsync_us"] = metric{less(wp.alwaysUS, wp.neverUS), "us", n}
	cum, _ := wp.resident.PrewarmStats()
	evaluated := cum.Evaluated - wp.prewarm0.Evaluated
	selected, total := cum.SelectedRules-wp.prewarm0.SelectedRules, cum.TotalRules-wp.prewarm0.TotalRules
	m["core.prewarm_evaluated"] = metric{float64(evaluated) / float64(max(n, 1)), "count", n}
	m["prefindex.select_ratio"] = metric{float64(selected) / float64(max(total, 1)), "ratio", int(total)}
	logBytes := wp.always.Status().LogBytes - wp.logBytes0
	m["durable.log_bytes_per_user_byte"] = metric{float64(logBytes) / float64(max(wp.userBytes, 1)), "ratio", wp.userBytes}

	// Replay the fsync=always journal's whole log into fresh sites.
	_, records, _, err := wp.always.ReadFrom(0)
	if err != nil {
		return err
	}
	recs := make([]*durable.Record, len(records))
	for i := range records {
		recs[i] = &records[i]
	}
	var replayMS []float64
	for i := 0; i < replayRepeats; i++ {
		site, err := core.NewSiteWithOptions(core.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		applied, err := durable.ApplyRecords(site, recs)
		replayMS = append(replayMS, ms(time.Since(t0)))
		if err != nil || applied != len(recs) {
			return fmt.Errorf("replaying the probe log: applied %d of %d records: %v", applied, len(recs), err)
		}
	}
	m["durable.replay_ms"] = metric{median(replayMS), "ms", len(recs)}
	return nil
}

// engineOpBase is where the engine probe's op ids start, above every
// replayed operation's.
const engineOpBase = 1 << 20

// enginesProbe is the paper's Figures 20 and 21 in miniature: every
// engine matches the five JRC levels against tenant 0's policies with
// the decision and conversion caches off, so each match pays its full
// conversion and query. The engines must agree with each other.
func enginesProbe(cfg *config, c *corpus, rec *recorder, res *traceResult) error {
	site, err := core.NewSiteWithOptions(core.Options{DisableDecisionCache: true, DisableConversionCache: true})
	if err != nil {
		return err
	}
	t := &c.tenants[0]
	policies := t.policies[:max(len(t.policies)/cfg.traceScale, 3)]
	for p := range policies {
		if _, err := site.InstallPolicyXML(string(t.policyXML[p])); err != nil {
			return err
		}
	}
	engines := []struct {
		engine core.Engine
		span   string
	}{
		{core.EngineNative, "appelengine.match"},
		{core.EngineSQL, "sqlengine.match"},
		{core.EngineXTable, "xtable.match"},
		{core.EngineXQuery, "xquery.match"},
	}
	ctx := context.Background()
	op := int32(engineOpBase)
	var convertUS []float64
	sums := map[string]float64{}
	for _, lv := range c.levels {
		for _, name := range policies {
			op++
			want := ""
			for _, e := range engines {
				s := rec.begin(e.span, 0, op)
				d, err := site.MatchPolicyCtx(ctx, lv.XML, name, e.engine)
				rec.end(s)
				if errors.Is(err, reldb.ErrTooComplex) && e.engine == core.EngineXTable {
					// The paper's blank Figure 21 cell: the view
					// translation of an exact-connective rule is
					// rejected at prepare time.
					rec.spans = rec.spans[:len(rec.spans)-1]
					continue
				}
				if err != nil {
					return fmt.Errorf("engines probe: %s %s/%s: %w", e.span, lv.Level, name, err)
				}
				res.attempted++
				if want == "" {
					want = d.Behavior
				} else if d.Behavior != want {
					res.failed++
				}
				if e.engine == core.EngineSQL {
					convertUS = append(convertUS, us(d.Convert))
				}
				sums[e.span] += float64(rec.spans[s-1].dur())
			}
		}
	}
	res.metrics["sqlengine.convert_us"] = metric{median(convertUS), "us", len(convertUS)}
	res.metrics["paper.sql_vs_native_x"] = metric{sums["appelengine.match"] / sums["sqlengine.match"], "x", len(convertUS)}
	return nil
}
