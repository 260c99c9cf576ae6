package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/workload"
)

// The durability experiment prices the write-ahead log: what one admin
// mutation costs under each fsync policy versus the in-memory path, how
// long crash recovery takes as the log grows, and the log's write
// amplification (physical WAL bytes per logical document byte). This is
// the cost side of PR 5's durability claim; the acceptance bars are
// fsync=interval mutation p99 AND p50 within 2x of in-memory.
//
// Every phase runs Writers concurrent admin writers in a closed loop,
// not one serial writer. That is the honest shape for group commit: a
// lone fsync=interval writer necessarily pays one real fsync per
// acknowledged mutation (that is what "a 2xx means the record was
// synced" costs), so its ratio to in-memory is fixed at roughly
// fsync/apply regardless of batching. Coalescing only pays when
// concurrent writers share the fsync — exactly the multi-admin /
// multi-tenant-proxy load the interval policy exists for — and the
// in-memory baseline uses the same writer pool, so the ratio isolates
// the durability cost rather than the queueing.

// DurabilityPhase is one measured mutation-latency configuration.
type DurabilityPhase struct {
	Name      string  `json:"name"` // in-memory, fsync=never, fsync=interval, fsync=always
	Mutations int     `json:"mutations"`
	P50Micros float64 `json:"p50Micros"`
	P99Micros float64 `json:"p99Micros"`
	// LogBytes is the WAL growth over the phase (0 for in-memory).
	LogBytes int64 `json:"logBytes"`
	// WriteAmp is LogBytes over the logical bytes mutated (0 for
	// in-memory).
	WriteAmp float64 `json:"writeAmp,omitempty"`
}

// RecoveryPoint is one measured crash-recovery replay.
type RecoveryPoint struct {
	// Mutations is the number of logged records replayed.
	Mutations int `json:"mutations"`
	// LogBytes is the log size the replay scanned.
	LogBytes int64 `json:"logBytes"`
	// RecoverMillis is open + scan + replay into a fresh site. The
	// replay is the batched path: every tail record lands through one
	// ApplyBatch (one snapshot rebuild), so this prices scan + parse +
	// bulk re-shred rather than per-record rebuilds.
	RecoverMillis float64 `json:"recoverMillis"`
	// MillisPerRecord is RecoverMillis over the records replayed — the
	// per-record cost of the batched replay.
	MillisPerRecord float64 `json:"millisPerRecord"`
}

// DurabilityResults is the full experiment, shaped for rendering and the
// BENCH_durability.json artifact.
type DurabilityResults struct {
	Seed       int64 `json:"seed"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// Writers is the concurrent admin writers per phase (the group-commit
	// coalescing population).
	Writers  int               `json:"writers"`
	Phases   []DurabilityPhase `json:"phases"`
	Recovery []RecoveryPoint   `json:"recovery"`
	// P99RatioInterval is fsync=interval mutation p99 over the in-memory
	// p99 — the acceptance-criterion number.
	P99RatioInterval float64 `json:"p99RatioInterval"`
	// P50RatioInterval is the same ratio at the median: with true group
	// commit the typical durable mutation should cost within 2x of the
	// in-memory path (the MAX_DURABLE_P50_RATIO gate).
	P50RatioInterval float64 `json:"p50RatioInterval"`
}

// DurabilityConfig parameterizes a durability run.
type DurabilityConfig struct {
	// Seed generates the workload (default 42).
	Seed int64
	// Mutations is the install/remove pairs measured per writer per
	// phase (default 50, i.e. 100 logged records per writer).
	Mutations int
	// Writers is the concurrent admin writers per phase (default 4).
	Writers int
	// RecoveryCounts are the log lengths (in records) to measure
	// recovery at (default 1000 and 10000).
	RecoveryCounts []int
	// Dir is the scratch directory for logs; empty uses a temp dir.
	Dir string
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Mutations == 0 {
		c.Mutations = 50
	}
	if c.Writers == 0 {
		c.Writers = 4
	}
	if len(c.RecoveryCounts) == 0 {
		c.RecoveryCounts = []int{1000, 10000}
	}
	return c
}

// baseSite builds a site preloaded with a few corpus policies — enough
// that every mutation pays a realistic snapshot rebuild, small enough
// that 10k replayed mutations stay tractable.
func baseSite(d *workload.Dataset, n int) (*core.Site, error) {
	site, err := core.NewSite()
	if err != nil {
		return nil, err
	}
	for _, pol := range d.Policies[:n] {
		if err := site.InstallPolicy(pol); err != nil {
			return nil, err
		}
	}
	return site, nil
}

// RunDurability measures mutation latency per fsync policy, recovery
// time versus log length, and write amplification.
func RunDurability(cfg DurabilityConfig) (*DurabilityResults, error) {
	cfg = cfg.withDefaults()
	d := workload.Generate(cfg.Seed)
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "p3pdurbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	res := &DurabilityResults{Seed: cfg.Seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Writers: cfg.Writers}

	// The mutation under test: install one extra corpus policy, then
	// remove it — the canonical admin churn pair. One pair's logical
	// payload is the installed document (the remove carries no document),
	// so write amplification prices the framing, JSON escaping, and the
	// remove record against the XML the admin actually shipped. Each
	// writer churns its own renamed copy of the document so the
	// concurrent install/remove pairs never collide on a policy name.
	churnPol := d.Policies[len(d.Policies)-1]
	churnDoc := d.PolicyXML[churnPol.Name]
	nameAttr := fmt.Sprintf("name=%q", churnPol.Name)
	if !strings.Contains(churnDoc, nameAttr) {
		return nil, fmt.Errorf("benchkit: churn document does not carry %s", nameAttr)
	}
	workerName := func(w int) string { return fmt.Sprintf("%s-w%d", churnPol.Name, w) }
	var logicalBytes int64
	workerDocs := make([]string, cfg.Writers)
	for w := range workerDocs {
		workerDocs[w] = strings.Replace(churnDoc, nameAttr, fmt.Sprintf("name=%q", workerName(w)), 1)
		logicalBytes += int64(len(workerDocs[w]))
	}

	measure := func(name string, journal *durable.Tenant, site *core.Site) (DurabilityPhase, error) {
		var startBytes int64
		if journal != nil {
			startBytes = journal.Status().LogBytes
		}
		workerLats := make([][]time.Duration, cfg.Writers)
		errs := make([]error, cfg.Writers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				doc, pol := workerDocs[w], workerName(w)
				lats := make([]time.Duration, 0, 2*cfg.Mutations)
				for i := 0; i < cfg.Mutations; i++ {
					start := time.Now()
					var err error
					if journal != nil {
						_, err = journal.InstallPolicyXML(site, doc)
					} else {
						_, err = site.InstallPolicyXML(doc)
					}
					if err != nil {
						errs[w] = fmt.Errorf("benchkit: %s install: %w", name, err)
						return
					}
					lats = append(lats, time.Since(start))
					start = time.Now()
					if journal != nil {
						err = journal.RemovePolicy(site, pol)
					} else {
						err = site.RemovePolicy(pol)
					}
					if err != nil {
						errs[w] = fmt.Errorf("benchkit: %s remove: %w", name, err)
						return
					}
					lats = append(lats, time.Since(start))
				}
				workerLats[w] = lats
			}(w)
		}
		wg.Wait()
		var lats []time.Duration
		for w := range workerLats {
			if errs[w] != nil {
				return DurabilityPhase{}, errs[w]
			}
			lats = append(lats, workerLats[w]...)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ph := DurabilityPhase{
			Name:      name,
			Mutations: len(lats),
			P50Micros: quantile(lats, 0.50),
			P99Micros: quantile(lats, 0.99),
		}
		if journal != nil {
			ph.LogBytes = journal.Status().LogBytes - startBytes
			if phaseLogical := logicalBytes * int64(cfg.Mutations); phaseLogical > 0 {
				ph.WriteAmp = float64(ph.LogBytes) / float64(phaseLogical)
			}
		}
		return ph, nil
	}

	// In-memory baseline. Two resident policies: every mutation pays the
	// full snapshot rebuild (the repo's write-path cost model) without
	// the rebuild swamping the WAL deltas under measurement.
	site, err := baseSite(d, 2)
	if err != nil {
		return nil, err
	}
	mem, err := measure("in-memory", nil, site)
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, mem)

	// One phase per fsync policy; auto-checkpointing is disabled so the
	// log bytes measure pure WAL cost.
	for _, policy := range []durable.FsyncPolicy{durable.FsyncNever, durable.FsyncInterval, durable.FsyncAlways} {
		store, err := durable.Open(fmt.Sprintf("%s/%s", dir, policy), durable.Options{
			Fsync:           policy,
			CheckpointEvery: -1,
		})
		if err != nil {
			return nil, err
		}
		site, err := baseSite(d, 2)
		if err != nil {
			return nil, err
		}
		journal, err := store.OpenTenant("bench")
		if err != nil {
			return nil, err
		}
		if err := journal.ReplayInto(site); err != nil {
			journal.Close()
			return nil, err
		}
		ph, err := measure("fsync="+policy.String(), journal, site)
		cerr := journal.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		res.Phases = append(res.Phases, ph)
		if policy == durable.FsyncInterval {
			if mem.P99Micros > 0 {
				res.P99RatioInterval = ph.P99Micros / mem.P99Micros
			}
			if mem.P50Micros > 0 {
				res.P50RatioInterval = ph.P50Micros / mem.P50Micros
			}
		}
	}

	// Recovery time versus log length: append N records (fsync=never,
	// so setup is write-bound, not sync-bound), close, then time a cold
	// open + replay into a fresh site. Replay applies every record
	// through the site's snapshot-rebuild write path, so its cost is
	// O(records x rebuild); a minimal policy keeps each rebuild cheap
	// and makes the measured slope the replay machinery itself. This is
	// exactly the cost the checkpoint bound (-checkpoint-every) exists
	// to cap.
	const tinyDoc = `<POLICY name="churn"><STATEMENT><NON-IDENTIFIABLE/></STATEMENT></POLICY>`
	for _, n := range cfg.RecoveryCounts {
		store, err := durable.Open(fmt.Sprintf("%s/recover-%d", dir, n), durable.Options{
			Fsync:           durable.FsyncNever,
			CheckpointEvery: -1,
		})
		if err != nil {
			return nil, err
		}
		site, err := core.NewSite()
		if err != nil {
			return nil, err
		}
		journal, err := store.OpenTenant("bench")
		if err != nil {
			return nil, err
		}
		if err := journal.ReplayInto(site); err != nil {
			journal.Close()
			return nil, err
		}
		for i := 0; i < n/2; i++ {
			if _, err := journal.InstallPolicyXML(site, tinyDoc); err != nil {
				journal.Close()
				return nil, err
			}
			if err := journal.RemovePolicy(site, "churn"); err != nil {
				journal.Close()
				return nil, err
			}
		}
		logBytes := journal.Status().LogBytes
		if err := journal.Close(); err != nil {
			return nil, err
		}

		start := time.Now()
		journal, err = store.OpenTenant("bench")
		if err != nil {
			return nil, err
		}
		fresh, err := core.NewSite()
		if err != nil {
			journal.Close()
			return nil, err
		}
		if err := journal.ReplayInto(fresh); err != nil {
			journal.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		if err := journal.Close(); err != nil {
			return nil, err
		}
		rp := RecoveryPoint{
			Mutations:     (n / 2) * 2,
			LogBytes:      logBytes,
			RecoverMillis: float64(elapsed.Microseconds()) / 1000,
		}
		if rp.Mutations > 0 {
			rp.MillisPerRecord = rp.RecoverMillis / float64(rp.Mutations)
		}
		res.Recovery = append(res.Recovery, rp)
	}

	return res, nil
}

// Render formats the durability table.
func (r *DurabilityResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Durability cost (admin mutation latency, %d concurrent writers, GOMAXPROCS=%d)\n", r.Writers, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%16s %10s %12s %12s %12s %9s\n", "phase", "mutations", "p50 us", "p99 us", "log bytes", "amp")
	for _, ph := range r.Phases {
		amp := "-"
		if ph.WriteAmp > 0 {
			amp = fmt.Sprintf("%.2fx", ph.WriteAmp)
		}
		fmt.Fprintf(&b, "%16s %10d %12.1f %12.1f %12d %9s\n",
			ph.Name, ph.Mutations, ph.P50Micros, ph.P99Micros, ph.LogBytes, amp)
	}
	fmt.Fprintf(&b, "fsync=interval p99 / in-memory p99 = %.2fx\n", r.P99RatioInterval)
	fmt.Fprintf(&b, "fsync=interval p50 / in-memory p50 = %.2fx\n\n", r.P50RatioInterval)
	fmt.Fprintf(&b, "Crash recovery (cold open + batched snapshot/log replay into a fresh site)\n")
	fmt.Fprintf(&b, "%10s %12s %14s %14s\n", "mutations", "log bytes", "recover ms", "ms/record")
	for _, rp := range r.Recovery {
		fmt.Fprintf(&b, "%10d %12d %14.1f %14.3f\n", rp.Mutations, rp.LogBytes, rp.RecoverMillis, rp.MillisPerRecord)
	}
	return b.String()
}

// WriteJSON writes the results as the machine-readable artifact
// (BENCH_durability.json) that CI uploads and later PRs track.
func (r *DurabilityResults) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
