package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// testConfig builds a distinct valid config per index.
func testConfig(i int) sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         uint64(i + 1),
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		MeasureInsts: 1000,
	}
}

// stubSim derives a deterministic result from the config alone, so
// byte-identical results across any dispatch path are checkable.
func stubSim(_ context.Context, cfg sim.Config) (sim.Result, error) {
	return sim.Result{Benchmark: cfg.Benchmark, Cycles: cfg.Seed * 10, IPC: float64(cfg.Seed)}, nil
}

// testWorker is one in-process hbserved worker: a real Service over a
// real runner behind a real HTTP listener — the same wire protocol a
// separate process would speak, minus the process.
type testWorker struct {
	svc  *service.Service
	ts   *httptest.Server
	sims atomic.Int64 // simulator executions (not store/memo hits)
}

// newTestWorker spins up a worker whose runner uses the given store
// (nil for storeless) and sim (nil for stubSim).
func newTestWorker(t *testing.T, store runner.Store, simFn func(context.Context, sim.Config) (sim.Result, error)) *testWorker {
	t.Helper()
	tw := &testWorker{}
	inner := simFn
	if inner == nil {
		inner = stubSim
	}
	counted := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		tw.sims.Add(1)
		return inner(ctx, cfg)
	}
	r, err := runner.New(runner.Options{Workers: 4, Sim: counted, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	tw.svc = service.New(r, service.Options{RetryAfter: 10 * time.Millisecond})
	tw.ts = httptest.NewServer(tw.svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = tw.svc.Shutdown(ctx)
		tw.ts.Close()
	})
	return tw
}

// newSharedStore stands up the coordinator-side HTTP store: a
// StoreServer over a MemStore, which every worker's RemoteStore points
// at.
func newSharedStore(t *testing.T) (*runner.StoreServer, string) {
	t.Helper()
	srv := runner.NewStoreServer(runner.NewMemStore())
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// deadWorkerURL returns a URL nothing listens on (connection refused).
func deadWorkerURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

func fastOptions(workers ...string) Options {
	return Options{
		Workers:      workers,
		HedgeAfter:   -1, // hedging exercised by its own test
		RetryBackoff: -1, // no inter-attempt sleeps
	}
}

// newFleetRunner wires coord in as a runner's simulator — exactly how
// hbserved's coordinator role runs sweeps: the runner's pool, memo, and
// ordering in front, fleet dispatch behind.
func newFleetRunner(t *testing.T, coord *Coordinator, workers int) *runner.Runner {
	t.Helper()
	r, err := runner.New(runner.Options{Workers: workers, Sim: coord.Run})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// slowSim is stubSim after a short sleep, so concurrent dispatches
// overlap on the fleet and least-loaded dispatch spreads them.
func slowSim(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	if !sleepCtx(ctx, 5*time.Millisecond) {
		return sim.Result{}, ctx.Err()
	}
	return stubSim(ctx, cfg)
}

// workerDeduped reads a worker's count of submissions answered by an
// existing identical job from its /metrics.
func workerDeduped(t *testing.T, tw *testWorker) int {
	t.Helper()
	resp, err := http.Get(tw.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "hbserved_jobs_deduped_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("worker /metrics has no hbserved_jobs_deduped_total")
	return 0
}

// TestClusterDedupExactlyOnce is the cluster-wide dedup pin: a
// coordinator over two workers sharing one remote store runs two
// overlapping sweeps, and each unique config is simulated exactly once
// across the whole fleet. Each sweep gets a fresh coordinator runner, so
// its memo cannot answer the overlap: every overlap point is dispatched
// and served from the shared store — or, when it lands on the worker
// that already ran it, by that worker's own job dedup.
func TestClusterDedupExactlyOnce(t *testing.T) {
	srv, storeURL := newSharedStore(t)
	w1 := newTestWorker(t, runner.NewRemoteStore(storeURL, nil, nil), slowSim)
	w2 := newTestWorker(t, runner.NewRemoteStore(storeURL, nil, nil), slowSim)
	coord, err := New(fastOptions(w1.ts.URL, w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sweepA := make([]sim.Config, 6) // points 0..5
	for i := range sweepA {
		sweepA[i] = testConfig(i)
	}
	sweepB := make([]sim.Config, 6) // points 3..8: overlaps A on 3,4,5
	for i := range sweepB {
		sweepB[i] = testConfig(i + 3)
	}

	check := func(name string, res []runner.JobResult, cfgs []sim.Config) {
		t.Helper()
		for i, jr := range res {
			if jr.Err != nil {
				t.Fatalf("%s point %d failed: %v", name, i, jr.Err)
			}
			want, _ := stubSim(ctx, cfgs[i])
			if jr.Result.Cycles != want.Cycles || jr.Result.IPC != want.IPC {
				t.Errorf("%s point %d = %+v, want %+v", name, i, jr.Result, want)
			}
		}
	}

	resA, err := newFleetRunner(t, coord, 2).Run(ctx, sweepA)
	if err != nil {
		t.Fatal(err)
	}
	check("sweepA", resA, sweepA)

	resB, err := newFleetRunner(t, coord, 2).Run(ctx, sweepB)
	if err != nil {
		t.Fatal(err)
	}
	check("sweepB", resB, sweepB)

	const unique, overlap = 9, 3 // 0..8; A∩B = 3,4,5
	if total := w1.sims.Load() + w2.sims.Load(); total != unique {
		t.Errorf("fleet simulated %d times (w1=%d w2=%d), want exactly %d — one per unique config",
			total, w1.sims.Load(), w2.sims.Load(), unique)
	}
	st := srv.Stats()
	if st.Puts != unique {
		t.Errorf("store received %d puts, want %d", st.Puts, unique)
	}
	if deduped := workerDeduped(t, w1) + workerDeduped(t, w2); int(st.Hits)+deduped != overlap {
		t.Errorf("overlap served by %d store hits + %d worker dedups, want %d in all", st.Hits, deduped, overlap)
	}
	// Both workers actually participated: the runner keeps two points
	// in flight and each simulation takes 5 ms, so least-loaded
	// dispatch sends the second point to the idle worker.
	if w1.sims.Load() == 0 || w2.sims.Load() == 0 {
		t.Errorf("lopsided fleet: w1=%d w2=%d simulations", w1.sims.Load(), w2.sims.Load())
	}
}

// TestFleetSweepMemoDedup: duplicate configs inside one sweep dispatch
// once and fan back out as the coordinator runner's memo hits.
func TestFleetSweepMemoDedup(t *testing.T) {
	w := newTestWorker(t, nil, nil)
	coord, err := New(fastOptions(w.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []sim.Config{testConfig(1), testConfig(2), testConfig(1), testConfig(1)}
	res, err := newFleetRunner(t, coord, 4).Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	memo := 0
	for i, jr := range res {
		if jr.Err != nil {
			t.Fatalf("point %d: %v", i, jr.Err)
		}
		if jr.MemoHit {
			memo++
		}
		want, _ := stubSim(context.Background(), cfgs[i])
		if jr.Result.Cycles != want.Cycles {
			t.Errorf("point %d cycles = %d, want %d", i, jr.Result.Cycles, want.Cycles)
		}
	}
	if memo != 2 {
		t.Errorf("memo hits = %d, want 2 (two duplicates of point 0)", memo)
	}
	if got := w.sims.Load(); got != 2 {
		t.Errorf("worker simulated %d times, want 2 unique configs", got)
	}
	if n := coord.Health()[0].Dispatched; n != 2 {
		t.Errorf("coordinator dispatched %d points, want 2 unique configs", n)
	}
}

// TestDeadWorkerReassignment: one worker is unreachable from the start;
// every point that tries it must reassign to the live peer, the sweep
// must complete, and the dead worker's breaker must open. Dispatch is
// serial, so the dead worker (first in the fleet, tied at zero load) is
// tried by the first points until its breaker opens.
func TestDeadWorkerReassignment(t *testing.T) {
	w := newTestWorker(t, nil, nil)
	dead := deadWorkerURL(t)
	opts := fastOptions(dead, w.ts.URL)
	opts.BreakerThreshold = 2
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cfgs := make([]sim.Config, 10)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	res, err := newFleetRunner(t, coord, 1).Run(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res {
		if jr.Err != nil {
			t.Errorf("point %d failed despite a live peer: %v", i, jr.Err)
		}
	}
	health := coord.Health()
	if health[0].URL != dead {
		t.Fatalf("health order: got %s first, want the dead worker", health[0].URL)
	}
	if health[0].Failed != 2 {
		t.Errorf("dead worker recorded %d dispatch failures, want 2 (then its breaker opens)", health[0].Failed)
	}
	if health[0].Healthy || health[0].Breaker != "open" {
		t.Errorf("dead worker health = %+v, want an open breaker", health[0])
	}
	if health[1].Completed != 10 {
		t.Errorf("live worker completed %d points, want all 10", health[1].Completed)
	}
	if st := coord.FleetStats(); st.Live != 1 || st.Total != 2 {
		t.Errorf("fleet = %+v, want 1 live of 2", st)
	}
}

// TestWorkerKilledMidSweep kills a worker while a sweep is in flight:
// points already dispatched to it must fail over mid-job (SSE stream
// drops, poll fails, the point rotates to the survivor) and the sweep
// still completes with every point accounted for.
func TestWorkerKilledMidSweep(t *testing.T) {
	w1 := newTestWorker(t, nil, slowSim)
	w2 := newTestWorker(t, nil, slowSim)
	opts := fastOptions(w1.ts.URL, w2.ts.URL)
	opts.BreakerThreshold = 2
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfgs := make([]sim.Config, 40)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	done := make(chan struct{})
	var res []runner.JobResult
	var sweepErr error
	go func() {
		defer close(done)
		res, sweepErr = newFleetRunner(t, coord, 4).Run(ctx, cfgs)
	}()

	// Let the sweep get going, then kill worker 2's listener: in-flight
	// SSE streams and future dispatches to it start failing.
	time.Sleep(25 * time.Millisecond)
	w2.ts.CloseClientConnections()
	w2.ts.Close()

	<-done
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	for i, jr := range res {
		if jr.Err != nil {
			t.Errorf("point %d failed despite failover: %v", i, jr.Err)
		}
		want, _ := stubSim(ctx, cfgs[i])
		if jr.Err == nil && jr.Result.Cycles != want.Cycles {
			t.Errorf("point %d cycles = %d, want %d", i, jr.Result.Cycles, want.Cycles)
		}
	}
}

// sleepCtx sleeps d honoring ctx; reports false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// TestJobFailureNotRedispatched: a config that fails deterministically
// on a worker must surface as that failure, not bounce around the
// fleet re-failing on every member.
func TestJobFailureNotRedispatched(t *testing.T) {
	boom := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("synthetic model failure: %w", sim.ErrInvalidConfig)
	}
	w1 := newTestWorker(t, nil, boom)
	w2 := newTestWorker(t, nil, boom)
	coord, err := New(fastOptions(w1.ts.URL, w2.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), testConfig(1))
	if err == nil {
		t.Fatal("Run of a failing config succeeded")
	}
	if !JobFailed(err) {
		t.Errorf("error not classified as a worker-side job failure: %v", err)
	}
	health := coord.Health()
	if n := health[0].Dispatched + health[1].Dispatched; n != 1 {
		t.Errorf("deterministic failure dispatched %d times, want exactly 1 (no cross-worker retry)", n)
	}
	// A job-level failure is not a transport failure: the worker that
	// ran it stays healthy.
	for _, h := range health {
		if !h.Healthy {
			t.Errorf("worker %s unhealthy after a job-level failure", h.URL)
		}
	}
}

// TestAllWorkersDown: with every breaker open, dispatch surfaces
// ErrNoWorkers instead of spinning.
func TestAllWorkersDown(t *testing.T) {
	opts := fastOptions(deadWorkerURL(t))
	opts.BreakerThreshold = 1
	opts.DispatchRetries = 3
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Run(context.Background(), testConfig(1))
	if err == nil {
		t.Fatal("Run with a dead fleet succeeded")
	}
	if st := coord.FleetStats(); st.Live != 0 || st.Total != 1 {
		t.Errorf("fleet = %+v, want 0 live of 1", st)
	}
}

// TestHedgingStealsFromStraggler: the straggler, first in the fleet,
// takes the primary dispatch and sits on the point past HedgeAfter; the
// hedge lands on the idle fast peer and its result wins.
func TestHedgingStealsFromStraggler(t *testing.T) {
	release := make(chan struct{})
	stall := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return stubSim(ctx, cfg)
	}
	slow := newTestWorker(t, nil, stall)
	fast := newTestWorker(t, nil, nil)
	t.Cleanup(func() { close(release) }) // unblock any straggler before shutdown

	opts := Options{
		Workers:      []string{slow.ts.URL, fast.ts.URL},
		HedgeAfter:   50 * time.Millisecond,
		RetryBackoff: -1,
	}
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := time.Now()
	res, err := coord.Run(ctx, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := stubSim(ctx, testConfig(7))
	if res.Cycles != want.Cycles {
		t.Errorf("hedged result = %+v, want %+v", res, want)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hedge took %v, should win long before the straggler", elapsed)
	}
	health := coord.Health()
	if health[0].Dispatched != 1 || health[0].Completed != 0 {
		t.Errorf("straggler health = %+v, want the primary dispatch, never completed", health[0])
	}
	if health[1].Completed != 1 {
		t.Errorf("fast worker health = %+v, want the hedged point completed", health[1])
	}
}

// TestFleetSweepCancellation: cancelling mid-sweep returns promptly
// with every point settled and carrying the cancellation error.
func TestFleetSweepCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	stall := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return sim.Result{}, ctx.Err()
	}
	w := newTestWorker(t, nil, stall)
	coord, err := New(fastOptions(w.ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfgs := make([]sim.Config, 8)
	for i := range cfgs {
		cfgs[i] = testConfig(i)
	}
	r := newFleetRunner(t, coord, 4)
	res, err := r.Run(ctx, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	for i, jr := range res {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("point %d: err = %v after cancellation, want context.Canceled", i, jr.Err)
		}
	}
	if m := r.Metrics(); m.Done != len(cfgs) || m.Errors != len(cfgs) {
		t.Errorf("runner metrics = %+v, want all %d points settled as errors", m, len(cfgs))
	}
}
