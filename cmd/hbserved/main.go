// Command hbserved exposes the simulator as a long-lived HTTP service:
// clients POST sim configs (or whole sweep batches) as JSON, poll or
// stream their progress, and fetch results, while the server dedups
// identical configs across requests and serves repeats from its
// content-addressed cache.
//
//	hbserved -addr :8080 -cache-dir ~/.hbcache -j 16 -queue 256
//
// The same binary also forms a distributed sweep fabric. A worker is a
// plain hbserved pointed at the coordinator's shared result store; a
// coordinator accepts the same API but dispatches every simulation to
// its fleet instead of running it locally. Workers may be seeded with
// -workers or join dynamically by self-registering against the
// coordinator and heartbeating a lease:
//
//	hbserved -role coordinator -addr :8080 -journal-dir /var/lib/hb
//	hbserved -addr :8081 -store remote -store-url http://coord:8080 \
//	    -register http://coord:8080                         # on each worker
//
// With -journal-dir the coordinator write-ahead-journals every sweep
// admission and terminal result; after a crash, restarting against the
// same -journal-dir (and the same store) replays the journal, restores
// every journaled sweep under its original ID, re-serves completed
// points from the store, and re-dispatches only the unfinished ones.
//
// The API lives under /v1 (see internal/service for the full route
// table); /healthz answers liveness probes, /readyz readiness (queue
// pressure, breaker state, and on coordinators the lease-based worker
// quorum from -min-workers), and /metrics exports Prometheus gauges,
// counters, and a job-latency histogram. On SIGTERM or Ctrl-C the
// server stops accepting new jobs (503), deregisters from its
// coordinator if it joined one, finishes every job already accepted,
// then exits — so an orchestrator's rolling restart never discards
// queued work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hbcache/internal/cluster"
	"hbcache/internal/fault"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hbserved:", err)
		os.Exit(1)
	}
}

// splitURLs parses a comma-separated -workers list, trimming blanks.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// clusterStatus maps the coordinator's fleet view onto the service's
// readiness/metrics types — the glue that keeps the service package
// from importing the cluster package. It reads only local membership
// and breaker state; neither /readyz nor /metrics touches the network.
func clusterStatus(coord *cluster.Coordinator, minWorkers int, journalReplays int64) *service.ClusterStatus {
	fs := coord.FleetStats()
	cs := &service.ClusterStatus{
		Live:           fs.Live,
		Registered:     fs.Registered,
		Reachable:      fs.Live, // alias for the probe-based field this replaced
		Total:          fs.Total,
		MinWorkers:     minWorkers,
		LeaseExpiries:  fs.LeaseExpiries,
		JournalReplays: journalReplays,
	}
	for _, h := range coord.Health() {
		cs.Workers = append(cs.Workers, service.WorkerStatus{
			URL:          h.URL,
			Healthy:      h.Healthy,
			State:        h.State,
			Permanent:    h.Permanent,
			Registered:   h.Registered,
			LeaseAgeMs:   h.LeaseAgeMs,
			Inflight:     h.Inflight,
			Dispatched:   h.Dispatched,
			Completed:    h.Completed,
			Failed:       h.Failed,
			Breaker:      h.Breaker,
			BreakerOpens: h.BreakerOpens,
		})
	}
	return cs
}

// sleepCtx waits d, reporting false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// advertiseURL derives the base URL a worker registers under: the
// -advertise override when set, else the bound listen address with
// unspecified hosts (":8081", "[::]:8081") rewritten to loopback —
// right for single-host fleets and tests; multi-host deployments set
// -advertise explicitly.
func advertiseURL(override string, bound net.Addr) string {
	if override != "" {
		return override
	}
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "http://" + bound.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// membershipLoop keeps a worker's lease alive: heartbeat at a third of
// the TTL, and on any heartbeat failure — coordinator restart, lease
// already reaped, transport blip — simply re-register, which is
// idempotent on the coordinator. Runs until ctx ends (shutdown then
// deregisters explicitly).
func membershipLoop(ctx context.Context, cl *cluster.Client, selfURL string, stderr io.Writer) {
	register := func() (time.Duration, bool) {
		for {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			ttl, err := cl.RegisterWorker(rctx, selfURL)
			cancel()
			if err == nil {
				return ttl, true
			}
			if !sleepCtx(ctx, time.Second) {
				return 0, false
			}
		}
	}
	ttl, ok := register()
	if !ok {
		return
	}
	fmt.Fprintf(stderr, "hbserved: registered with %s as %s (lease %s)\n", cl.URL(), selfURL, ttl)
	for {
		interval := ttl / 3
		if interval <= 0 {
			interval = 5 * time.Second
		}
		if !sleepCtx(ctx, interval) {
			return
		}
		hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := cl.HeartbeatWorker(hctx, selfURL)
		cancel()
		if err == nil {
			continue
		}
		if ttl, ok = register(); !ok {
			return
		}
		fmt.Fprintf(stderr, "hbserved: lease lost (%v), re-registered with %s\n", err, cl.URL())
	}
}

// restoreSweeps re-admits every journaled sweep under its original ID.
// Completed points re-serve from the result store without dispatching;
// unfinished shards re-run on the fleet. Transient admission failures
// (queue full, breaker open) retry until ctx ends — a restored backlog
// larger than the queue drains in as the fleet makes room.
func restoreSweeps(ctx context.Context, svc *service.Service, sweeps []cluster.JournaledSweep, stderr io.Writer) {
	for _, sw := range sweeps {
		for {
			_, err := svc.RestoreSweep(sw.ID, sw.Configs)
			if err == nil {
				fmt.Fprintf(stderr, "hbserved: restored %s (%d configs)\n", sw.ID, len(sw.Configs))
				break
			}
			if errors.Is(err, service.ErrQueueFull) || errors.Is(err, service.ErrBreakerOpen) {
				if !sleepCtx(ctx, 250*time.Millisecond) {
					return
				}
				continue
			}
			fmt.Fprintf(stderr, "hbserved: restoring %s: %v\n", sw.ID, err)
			break
		}
	}
}

// run is main without the process-global bits, so tests can drive a
// full server lifecycle — including signal-initiated shutdown — in a
// goroutine. It prints exactly one "listening on ADDR" line to stdout
// once the socket is bound.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hbserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheDir   = fs.String("cache-dir", "", "content-addressed result cache directory (empty = caching off)")
		snapDir    = fs.String("snapshot-dir", "", "checkpoint directory: budget-truncated jobs park resumable checkpoints (POST /v1/jobs/{id}/resume); runs one simulation at a time, so not with -batch N > 1")
		workers    = fs.Int("j", 0, "concurrent simulations (0 = all CPUs)")
		batch      = fs.Int("batch", 1, "lockstep simulations per worker: drain up to N queued jobs and step them as one batch, sharing stream generation and prewarm (1 = off; N > 1 cannot be combined with -snapshot-dir or -role coordinator)")
		queueSize  = fs.Int("queue", 64, "bounded job queue size; a full queue answers 429")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job wall-time cap (0 = none)")
		retryAfter = fs.Duration("retry-after", time.Second, "backoff hint sent with 429 responses")
		maxInsts   = fs.Uint64("max-insts", 0, "reject configs whose total instruction budget exceeds this (0 = no limit)")
		drain      = fs.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for accepted jobs to finish")
		maxCyc     = fs.Uint64("max-cycles", 0, "simulated-cycle budget per job (0 = unlimited); a job over budget fails")
		breakThr   = fs.Int("breaker-threshold", 0, "consecutive job failures that open the circuit breaker (0 = default 5, negative = disabled)")
		breakCool  = fs.Duration("breaker-cooldown", 0, "how long the breaker stays open before admitting a probe (0 = default 15s)")
		sseTimeout = fs.Duration("sse-write-timeout", 0, "per-write deadline before a stalled SSE subscriber is dropped (0 = default 30s)")
		faultSeed  = fs.Uint64("fault-seed", 1, "seed for the fault-injection registry (with -fault)")
		role       = fs.String("role", "single", "single | worker | coordinator")
		workerURLs = fs.String("workers", "", "comma-separated seed worker base URLs (coordinator role; optional when workers self-register)")
		storeKind  = fs.String("store", "auto", "result store backend: auto | disk | mem | remote | none")
		storeURL   = fs.String("store-url", "", "base URL of a remote result store (with -store remote)")
		hedgeAfter = fs.Duration("hedge-after", 0, "coordinator: duplicate a straggling point on a second worker after this long (0 = default 30s, negative = off)")
		journalDir = fs.String("journal-dir", "", "coordinator: write-ahead sweep journal directory; restarting against the same directory recovers in-flight sweeps")
		registerAt = fs.String("register", "", "worker: coordinator base URL to self-register with and heartbeat against")
		advertise  = fs.String("advertise", "", "worker: base URL to advertise when registering (default: derived from the bound listen address)")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "coordinator: how long a registered worker's lease survives without a heartbeat")
		minWorkers = fs.Int("min-workers", 1, "coordinator: /readyz answers 503 while live workers sit below this quorum")
		traceDir   = fs.String("trace-dir", "", "content-addressed store for uploaded workload traces (empty = temp dir, removed on exit)")
		maxTrace   = fs.Int64("max-trace-bytes", 0, "cap one trace upload's size; larger bodies answer 413 (0 = default 64 MiB)")
	)
	var faultRules []fault.Rule
	fs.Func("fault", "inject a fault, repeatable: site:kind[:delay][:p=F][:skip=N][:limit=N] (e.g. sim.run:hang:limit=1)", func(v string) error {
		rule, err := fault.ParseRule(v)
		if err != nil {
			return err
		}
		faultRules = append(faultRules, rule)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One registry feeds both layers: chaos drills on a live server
	// exercise the same sites the test suite does.
	var faults *fault.Registry
	if len(faultRules) > 0 {
		faults = fault.New(*faultSeed)
		for _, rule := range faultRules {
			faults.Add(rule)
		}
		fmt.Fprintf(stderr, "hbserved: fault injection armed: %d rule(s), seed %d\n", len(faultRules), *faultSeed)
	}

	// Flags only one role can honor are errors elsewhere, so a typo'd
	// launch script fails loudly instead of silently dropping the
	// journal or the quorum. Explicitly-set flags are detected via
	// fs.Visit because some coordinator flags carry non-zero defaults.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fleet := splitURLs(*workerURLs)
	isCoord := *role == "coordinator"
	switch *role {
	case "single", "worker":
		// A worker IS a single-role server; the spelling just documents
		// intent in process lists and launch scripts.
		if len(fleet) > 0 {
			return errors.New("-workers is only meaningful with -role coordinator")
		}
		for _, f := range []string{"journal-dir", "lease-ttl", "min-workers"} {
			if set[f] {
				return fmt.Errorf("-%s is only meaningful with -role coordinator", f)
			}
		}
	case "coordinator":
		if *registerAt != "" {
			return errors.New("-register is only meaningful on workers (single or worker role)")
		}
		if *batch > 1 {
			return fmt.Errorf("-batch %d cannot be combined with -role coordinator: the fleet simulates one point per dispatch", *batch)
		}
	default:
		return fmt.Errorf("unknown -role %q (want single, worker, or coordinator)", *role)
	}
	if *advertise != "" && *registerAt == "" {
		return errors.New("-advertise requires -register")
	}
	if *batch > 1 && *snapDir != "" {
		return fmt.Errorf("-batch %d cannot be combined with -snapshot-dir: batch lanes cannot park abort checkpoints", *batch)
	}

	// Resolve the result-store backend. "auto" picks remote when
	// -store-url is set, the disk cache when -cache-dir is set, an
	// in-memory store on coordinators (so the fleet always has a shared
	// store endpoint to point at), and none otherwise.
	var store runner.Store
	diskDir := ""
	kind := *storeKind
	if kind == "auto" {
		switch {
		case *storeURL != "":
			kind = "remote"
		case *cacheDir != "":
			kind = "disk"
		case isCoord:
			kind = "mem"
		default:
			kind = "none"
		}
	}
	switch kind {
	case "disk":
		if *cacheDir == "" {
			return errors.New("-store disk requires -cache-dir")
		}
		diskDir = *cacheDir
	case "mem":
		store = runner.NewMemStore()
	case "remote":
		if *storeURL == "" {
			return errors.New("-store remote requires -store-url")
		}
		store = runner.NewRemoteStore(*storeURL, nil, faults)
	case "none":
	default:
		return fmt.Errorf("unknown -store %q (want auto, disk, mem, remote, or none)", *storeKind)
	}

	// Crash recovery happens before anything is served: replay the
	// journal (quarantining corrupt lines), then reopen it for appends.
	// The restored sweeps are re-admitted once the service exists.
	var (
		journal        *cluster.Journal
		replayed       *cluster.ReplayState
		journalReplays int64
	)
	if isCoord && *journalDir != "" {
		st, err := cluster.Replay(*journalDir, faults)
		if err != nil {
			return fmt.Errorf("replaying sweep journal: %w", err)
		}
		replayed = st
		journalReplays = 1
		if st.Records > 0 || st.Corrupt > 0 {
			fmt.Fprintf(stderr, "hbserved: journal replay: %d record(s), %d sweep(s) (%d incomplete), %d corrupt line(s) quarantined\n",
				st.Records, len(st.Sweeps), len(st.Incomplete()), st.Corrupt)
		}
		journal, err = cluster.OpenJournal(*journalDir, faults)
		if err != nil {
			return err
		}
		defer journal.Close()
	}

	// A coordinator never simulates locally: its runner's "simulator"
	// dispatches each point to the fleet, so every existing layer —
	// queue, dedup, sweeps, SSE, breaker, metrics — serves the cluster
	// unchanged. Concurrency scales with the fleet, not local CPUs.
	var coord *cluster.Coordinator
	var simFn func(context.Context, sim.Config) (sim.Result, error)
	conc := *workers
	if isCoord {
		c, err := cluster.New(cluster.Options{
			Workers:    fleet,
			HedgeAfter: *hedgeAfter,
			LeaseTTL:   *leaseTTL,
			Journal:    journal,
			Faults:     faults,
		})
		if err != nil {
			return err
		}
		coord = c
		defer coord.Close()
		simFn = coord.Run
		if conc <= 0 {
			conc = 4 * max(1, len(fleet))
		}
		fmt.Fprintf(stderr, "hbserved: coordinator over %d seed worker(s), store %s, quorum %d\n", len(fleet), kind, *minWorkers)
	}

	runnerOpts := runner.Options{
		Workers:      conc,
		BatchSize:    *batch,
		CacheDir:     diskDir,
		SnapshotDir:  *snapDir,
		Store:        store,
		Sim:          simFn,
		SimTimeout:   *jobTimeout,
		SimMaxCycles: *maxCyc,
		Faults:       faults,
	}
	if journal != nil {
		// The journal's result records: one per owned job reaching a
		// terminal state, successful ones marking their key complete for
		// any future replay.
		runnerOpts.OnTerminal = func(key string, cfg sim.Config, err error) {
			rec := cluster.Record{Type: cluster.RecordResult, Key: key}
			if err != nil {
				rec.Failed = true
				rec.Error = err.Error()
			}
			if aerr := journal.Append(rec); aerr != nil {
				fmt.Fprintf(stderr, "hbserved: journal append: %v\n", aerr)
			}
		}
	}
	r, err := runner.New(runnerOpts)
	if err != nil {
		return err
	}
	svcOpts := service.Options{
		QueueSize:        *queueSize,
		Concurrency:      conc,
		JobTimeout:       *jobTimeout,
		RetryAfter:       *retryAfter,
		MaxTotalInsts:    *maxInsts,
		BreakerThreshold: *breakThr,
		BreakerCooldown:  *breakCool,
		SSEWriteTimeout:  *sseTimeout,
		Faults:           faults,
		TraceDir:         *traceDir,
		MaxTraceBytes:    *maxTrace,
	}
	// A worker fills trace-store misses from its coordinator: the
	// registration target when it has one, else the shared store's host.
	if !isCoord {
		switch {
		case *registerAt != "":
			svcOpts.TraceFetchURL = *registerAt
		case *storeURL != "":
			svcOpts.TraceFetchURL = *storeURL
		}
	}
	if coord != nil {
		svcOpts.ClusterStatus = func(context.Context) *service.ClusterStatus {
			return clusterStatus(coord, *minWorkers, journalReplays)
		}
		svcOpts.Membership = coord
	}
	if journal != nil {
		// The journal's sweep records: admission is logged before the
		// client sees the sweep ID, so any sweep a client can observe
		// survives a coordinator crash.
		svcOpts.OnSweepAdmitted = func(id string, cfgs []sim.Config) {
			if aerr := journal.Append(cluster.Record{Type: cluster.RecordSweep, SweepID: id, Configs: cfgs}); aerr != nil {
				fmt.Fprintf(stderr, "hbserved: journal append: %v\n", aerr)
			}
		}
	}
	svc := service.New(r, svcOpts)

	// Re-admit journaled sweeps before the listener opens: their IDs
	// (and the ID sequence behind them) are reserved before any client
	// can race a fresh submission. Completed sweeps re-serve from the
	// store; incomplete ones queue their unfinished shards, which wait
	// out the join grace for workers to (re-)register.
	if replayed != nil && len(replayed.Sweeps) > 0 {
		restoreSweeps(ctx, svc, replayed.Sweeps, stderr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	// A worker with -register joins the coordinator's fleet and keeps
	// its lease alive; shutdown deregisters it below before draining.
	var memberClient *cluster.Client
	selfURL := ""
	if *registerAt != "" {
		memberClient = cluster.NewClient(*registerAt, nil)
		selfURL = advertiseURL(*advertise, ln.Addr())
		go membershipLoop(ctx, memberClient, selfURL, stderr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown. A registered worker deregisters first, so the
	// coordinator stops dispatching to it the moment the drain begins;
	// then the job queue drains (results stay fetchable over HTTP the
	// whole time), then the listener closes and in-flight requests
	// finish — SSE streams end when the service's drain completes, so
	// the last phase is short.
	fmt.Fprintln(stderr, "hbserved: signal received, draining jobs")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if memberClient != nil {
		if err := memberClient.DeregisterWorker(dctx, selfURL); err != nil {
			fmt.Fprintf(stderr, "hbserved: deregistering from %s: %v\n", memberClient.URL(), err)
		} else {
			fmt.Fprintf(stderr, "hbserved: deregistered from %s\n", memberClient.URL())
		}
	}
	drainErr := svc.Shutdown(dctx)
	httpErr := srv.Shutdown(dctx)
	<-serveErr // always http.ErrServerClosed after Shutdown
	if drainErr != nil {
		return fmt.Errorf("draining jobs: %w", drainErr)
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return fmt.Errorf("closing http server: %w", httpErr)
	}
	fmt.Fprintln(stderr, "hbserved: drained cleanly")
	return nil
}
