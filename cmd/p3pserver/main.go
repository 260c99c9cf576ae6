// Command p3pserver runs the server-centric P3P matching service
// (Figures 5 and 6 of the paper) over HTTP:
//
//	p3pserver [-addr=:8733] [-demo] [-budget=N] [-timeout=D]
//
// With -demo the server starts preloaded with the synthesized 29-policy
// corpus and its reference file, so clients can match immediately. The
// API, one line per route (a test holds every line to a live route):
//
//	POST /policies               install a POLICY/POLICIES document
//	GET  /policies               list installed policy names
//	GET  /policies/{name}        fetch a policy document (P3P: CP header)
//	DELETE /policies/{name}      remove a policy (versioning)
//	GET  /compact/{name}         a policy's compact (CP header) form
//	POST /reference              install the META reference file
//	GET  /reference              fetch it (a hybrid client resolves URIs itself)
//	GET  /check?url=&cookie=&level=
//	                             the protocol loop: reference-file lookup,
//	                             compact fast path, full match on fallback
//	POST /check?url=&cookie=&engine=
//	                             the same, with the APPEL body as preference
//	POST /matchpolicy?policy=&engine=
//	                             full decision of the APPEL body against a
//	                             named policy; engines: native, sql, xtable,
//	                             xquery
//	POST /matchall?engine=       full decisions against every policy
//	POST /prefs?name=&engines=   register a preference for pre-warming
//	GET  /prefs                  registrations and decision-cache warmth
//	GET  /analytics              site-owner conflict statistics
//	GET  /durability             the log position (with -durable)
//	GET  /wal?from=&wait=        the log stream followers tail (with -durable)
//	GET  /metrics                counters and histograms
//	GET  /debug/vars             the same as expvar
//	GET  /healthz                liveness
//	GET  /readyz                 readiness
//
// Resource governance: -budget caps evaluator steps per match (503
// budget-exceeded past it), -timeout bounds each matching request's
// wall clock (504 past it), and the P3P_FAULTS environment variable (or
// -faults) arms deterministic fault injection for failure drills, e.g.
// P3P_FAULTS=reldb.query:error:after=3. The server shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests.
//
// Caching: repeat matches are served from a per-site lock-free decision
// cache keyed by (preference, policy, engine, snapshot generation);
// policy writes invalidate it wholesale by publishing a new generation.
// -decision-cache sizes it in slots (0 = the 4096 default, -1 disables);
// responses served from it carry "cached": true and zero convert/query
// times. The conversion cache below it is always on.
//
// Multi-tenant mode: -sites-dir points at a directory with one
// subdirectory per tenant (each holding *.xml policy documents and an
// optional reference.xml META file). Tenants load lazily, are reachable
// under /sites/{name}/... or by Host header, and -max-sites bounds how
// many stay resident (LRU eviction past it). SIGHUP re-reads every
// resident tenant's directory and swaps its policy set atomically —
// matches in flight keep their snapshot, so reload never blocks reads.
//
// Durability: -durable points at a state directory and turns admin
// mutations into write-ahead-logged operations — every policy install,
// removal, and reference-file change is on disk before its 2xx, and a
// killed server recovers the exact acknowledged state on restart from
// its snapshot checkpoint plus log tail. -fsync picks the sync policy
// (always, interval, never) and -checkpoint-every how many logged
// records trigger an automatic snapshot. With -durable, SIGHUP
// checkpoints every resident tenant instead of re-reading directories
// (the log, not the sites-dir, is the source of truth), and GET
// /durability (or /sites/{name}/durability) reports the log position.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/obs"
	"p3pdb/internal/registry"
	"p3pdb/internal/replica"
	"p3pdb/internal/server"
	"p3pdb/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8733", "listen address")
	demo := flag.Bool("demo", false, "preload the synthesized Fortune-1000-style corpus")
	seed := flag.Int64("seed", 42, "corpus seed for -demo")
	budget := flag.Int64("budget", 0, "per-match evaluator step budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-request matching deadline (0 = none)")
	policyTimeout := flag.Duration("policy-timeout", 0, "per-policy deadline inside /matchall (0 = none)")
	faults := flag.String("faults", "", "fault-injection spec (overrides P3P_FAULTS)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof, /debug/vars, and /metrics (empty = off)")
	traceLog := flag.String("trace-log", "", `request-trace destination: a file path, or "-" for stderr (empty = tracing off)`)
	sitesDir := flag.String("sites-dir", "", "multi-tenant mode: directory of per-site policy directories")
	maxSites := flag.Int("max-sites", 0, "resident-tenant bound for -sites-dir (0 = unbounded)")
	durableDir := flag.String("durable", "", "durable state directory: write-ahead-log every admin mutation and recover on restart (empty = in-memory only)")
	fsyncMode := flag.String("fsync", "always", "WAL sync policy with -durable: always, interval, or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "group-commit period for -fsync=interval")
	checkpointEvery := flag.Int("checkpoint-every", 256, "logged records between automatic snapshot checkpoints (-1 disables)")
	decisionCache := flag.Int("decision-cache", 0, "decision-cache slots per site, rounded up to a power of two (0 = default 4096, -1 = disabled)")
	recoveryParallel := flag.Int("recovery-parallel", 0, "tenant-recovery workers for -sites-dir startup and SIGHUP reload (0 = one per CPU, 1 = serial)")
	recoveryWarm := flag.Bool("recovery-warm", true, "with -sites-dir, load every known tenant before serving instead of lazily on first request")
	follow := flag.String("follow", "", "follower mode: tail this leader URL's WAL and serve read-only matches (excludes -demo, -sites-dir, -durable)")
	followTenants := flag.String("follow-tenants", "", "comma-separated tenants to replicate with -follow (empty = discover from leader)")
	followMaxLag := flag.Uint64("follow-max-lag", 0, "records a follower may lag and still report ready with -follow")
	flag.Parse()

	if *traceLog != "" {
		w := os.Stderr
		if *traceLog != "-" {
			f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		obs.SetTraceWriter(w)
		log.Printf("request tracing on: one JSON line per request to %s", *traceLog)
	}

	if *debugAddr != "" {
		obs.PublishExpvar()
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dmux.Handle("/metrics", obs.Handler(obs.Default))
		go func() {
			log.Printf("debug listener (pprof, expvar, metrics) on %s", *debugAddr)
			dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	spec := *faults
	if spec == "" {
		spec = os.Getenv("P3P_FAULTS")
	}
	if spec != "" {
		if err := faultkit.EnableFromEnv(spec); err != nil {
			fatal(err)
		}
		log.Printf("fault injection armed: %s", spec)
	}

	siteOpts := core.Options{
		MatchBudget:      *budget,
		PerPolicyTimeout: *policyTimeout,
	}
	switch {
	case *decisionCache < 0:
		siteOpts.DisableDecisionCache = true
	case *decisionCache > 0:
		siteOpts.DecisionCacheSize = *decisionCache
	}
	srvOpts := server.Options{RequestTimeout: *timeout}

	if *follow != "" {
		if *demo || *sitesDir != "" || *durableDir != "" {
			fatal(errors.New("-follow runs a read-only replica; it excludes -demo, -sites-dir, and -durable"))
		}
		runFollower(*addr, *follow, *followTenants, *followMaxLag, siteOpts)
		return
	}

	var store *durable.Store
	if *durableDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		store, err = durable.Open(*durableDir, durable.Options{
			Fsync:           policy,
			FsyncInterval:   *fsyncInterval,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			fatal(err)
		}
		log.Printf("durable mode: WAL + checkpoints under %s (fsync=%s, checkpoint-every=%d)",
			*durableDir, policy, *checkpointEvery)
	}

	// onShutdown collects the final durability work (checkpoint + close)
	// run after the listener drains.
	var onShutdown func()

	var srv *http.Server
	if *sitesDir != "" {
		if *demo {
			fatal(errors.New("-demo applies to single-site mode; populate -sites-dir directories instead"))
		}
		reg, err := registry.New(registry.Options{
			Dir:                 *sitesDir,
			Site:                siteOpts,
			MaxSites:            *maxSites,
			Durable:             store,
			RecoveryParallelism: *recoveryParallel,
		})
		if err != nil {
			fatal(err)
		}
		if *recoveryWarm {
			start := time.Now()
			if err := reg.LoadAll(); err != nil {
				log.Printf("tenant warm-up: %v", err)
			}
			log.Printf("warmed %d tenants in %s", reg.Len(), time.Since(start).Round(time.Millisecond))
		}
		// SIGHUP: with durability on, checkpoint every resident tenant
		// (the log is the source of truth; a snapshot bounds recovery
		// time). Without it, hot-reload every tenant from disk; each
		// swap is atomic, so requests in flight finish on their old
		// snapshot.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if store != nil {
					log.Printf("SIGHUP: checkpointing %d resident tenants", reg.Len())
					if err := reg.CheckpointAll(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
					continue
				}
				log.Printf("SIGHUP: reloading %d resident tenants", reg.Len())
				if err := reg.ReloadAll(); err != nil {
					log.Printf("reload: %v", err)
				}
			}
		}()
		if store != nil {
			onShutdown = func() {
				if err := reg.Close(); err != nil {
					log.Printf("durable close: %v", err)
				}
			}
		}
		log.Printf("multi-tenant mode: %d tenants under %s", len(reg.Names()), *sitesDir)
		srv = server.NewMultiWithOptions(reg, srvOpts).HTTPServer(*addr)
	} else {
		site, err := core.NewSiteWithOptions(siteOpts)
		if err != nil {
			fatal(err)
		}
		if store != nil {
			journal, err := store.OpenTenant("default")
			if err != nil {
				fatal(err)
			}
			if err := journal.ReplayInto(site); err != nil {
				fatal(err)
			}
			if n := len(site.PolicyNames()); n > 0 {
				log.Printf("recovered %d policies from %s (LSN %d)", n, *durableDir, journal.Status().LSN)
			}
			srvOpts.Journal = journal
			// SIGHUP checkpoints the single site, mirroring multi-tenant
			// mode.
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for range hup {
					log.Printf("SIGHUP: checkpointing")
					if err := journal.Checkpoint(site); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				}
			}()
			onShutdown = func() {
				if err := journal.Checkpoint(site); err != nil && !errors.Is(err, durable.ErrClosed) {
					log.Printf("durable checkpoint: %v", err)
				}
				if err := journal.Close(); err != nil {
					log.Printf("durable close: %v", err)
				}
			}
		}
		if *demo && len(site.PolicyNames()) == 0 {
			d := workload.Generate(*seed)
			for _, pol := range d.Policies {
				if err := site.InstallPolicy(pol); err != nil {
					fatal(err)
				}
			}
			if err := site.InstallReferenceFile(d.RefFile); err != nil {
				fatal(err)
			}
			if srvOpts.Journal != nil {
				// The preload rode outside the journal; checkpoint so it
				// is durable as one snapshot.
				if err := srvOpts.Journal.Checkpoint(site); err != nil {
					fatal(err)
				}
			}
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "localhost" + host
			}
			log.Printf("preloaded %d policies; try: curl 'http://%s/check?url=%s&level=mild'",
				len(d.Policies), host, d.URIFor(d.Policies[0].Name))
		}
		srv = server.NewWithOptions(site, srvOpts).HTTPServer(*addr)
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let
	// in-flight matches finish (their request contexts are canceled by
	// the drain deadline if they overstay).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("p3pserver listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("p3pserver shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
		if onShutdown != nil {
			onShutdown()
		}
	}
}

// runFollower runs the read-only replica face (DESIGN.md §12): tail the
// leader's WAL per tenant, serve matches from local snapshots, reject
// writes with a 403 pointing back at the leader.
func runFollower(addr, leader, tenants string, maxLag uint64, siteOpts core.Options) {
	opts := replica.Options{Leader: leader, MaxReadyLag: maxLag, Site: siteOpts}
	if tenants != "" {
		for _, name := range strings.Split(tenants, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Tenants = append(opts.Tenants, name)
			}
		}
	}
	node, err := replica.New(opts)
	if err != nil {
		fatal(err)
	}
	if err := node.Start(); err != nil {
		fatal(err)
	}
	srv := node.HTTPServer(addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("p3pserver follower listening on %s (leader %s)", addr, leader)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("p3pserver follower shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fatal(err)
		}
		node.Stop()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p3pserver:", err)
	os.Exit(1)
}
