package sim

import (
	"context"
	"errors"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// batchOrgs are the three cache organizations the identity tests sweep:
// ideal multi-porting, banking, and a line-buffered organization. All
// share one 32K geometry, so they also exercise warm-state sharing
// (one functional prewarm replay, copied to the other two lanes).
func batchOrgs() []mem.SystemConfig {
	return []mem.SystemConfig{
		mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false),
		mem.DefaultSRAMSystem(32<<10, 2, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
	}
}

func batchTestConfig(bench string, memory mem.SystemConfig) Config {
	return Config{
		Benchmark:    bench,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       memory,
		PrewarmInsts: 30_000,
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
	}
}

// requireIdentical fails unless the batched result matches the single
// run exactly, including the differential stream hash.
func requireIdentical(t *testing.T, label string, single, batched Result) {
	t.Helper()
	if single != batched {
		t.Errorf("%s: batched result diverges from single run:\nsingle:  %+v\nbatched: %+v", label, single, batched)
	}
	if single.StreamHash == 0 {
		t.Errorf("%s: single run reported no stream hash; identity not witnessed", label)
	}
}

// TestBatchBitIdentityAcrossWorkloads pins RunBatch's contract: for
// every workload and organization the batched result is bit-identical
// to RunContext — same stats and same FNV stream hash — both when the
// batch holds one workload's organizations (shared stream, shared
// prewarm) and when all 27 points run in a single mixed batch.
func TestBatchBitIdentityAcrossWorkloads(t *testing.T) {
	opts := RunOpts{Hash: true}
	ctx := context.Background()
	var allCfgs []Config
	var allSingles []Result
	for _, bench := range workload.BenchmarkNames() {
		cfgs := make([]Config, 0, 3)
		for _, org := range batchOrgs() {
			cfgs = append(cfgs, batchTestConfig(bench, org))
		}
		singles := make([]Result, len(cfgs))
		for i, cfg := range cfgs {
			r, err := RunContext(ctx, cfg, opts)
			if err != nil {
				t.Fatalf("%s[%d]: single run: %v", bench, i, err)
			}
			singles[i] = r
		}
		results, errs := RunBatch(ctx, cfgs, opts)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s[%d]: batch lane: %v", bench, i, errs[i])
			}
			requireIdentical(t, bench, singles[i], results[i])
		}
		allCfgs = append(allCfgs, cfgs...)
		allSingles = append(allSingles, singles...)
	}

	// All workloads and organizations in one heterogeneous batch.
	results, errs := RunBatch(ctx, allCfgs, opts)
	for i := range allCfgs {
		if errs[i] != nil {
			t.Fatalf("combined lane %d (%s): %v", i, allCfgs[i].Benchmark, errs[i])
		}
		requireIdentical(t, "combined "+allCfgs[i].Benchmark, allSingles[i], results[i])
	}
}

// TestBatchBitIdentityTimingPrewarm covers the timed-prewarm path,
// where only the region sweep is shared and the prewarm itself runs
// through each lane's pipeline.
func TestBatchBitIdentityTimingPrewarm(t *testing.T) {
	opts := RunOpts{Hash: true}
	ctx := context.Background()
	var cfgs []Config
	for _, org := range batchOrgs() {
		cfg := batchTestConfig("gcc", org)
		cfg.PrewarmInsts = 8_000
		cfg.PrewarmMode = PrewarmTiming
		cfgs = append(cfgs, cfg)
	}
	results, errs := RunBatch(ctx, cfgs, opts)
	for i, cfg := range cfgs {
		single, err := RunContext(ctx, cfg, opts)
		if err != nil {
			t.Fatalf("lane %d single: %v", i, err)
		}
		if errs[i] != nil {
			t.Fatalf("lane %d batch: %v", i, errs[i])
		}
		requireIdentical(t, "timing", single, results[i])
	}
}

// TestBatchHeterogeneousBudgetAbort runs a mixed batch in which one
// lane's measured window is far too long for the shared cycle budget:
// that lane must fail with ErrBudget while every other lane completes
// bit-identically to its single run under the same options.
func TestBatchHeterogeneousBudgetAbort(t *testing.T) {
	opts := RunOpts{Hash: true, MaxCycles: 150_000}
	ctx := context.Background()
	cfgs := []Config{
		batchTestConfig("gcc", batchOrgs()[0]),
		batchTestConfig("li", batchOrgs()[1]),
		batchTestConfig("gcc", batchOrgs()[2]),
	}
	cfgs[2].MeasureInsts = 50_000_000 // cannot finish within MaxCycles
	results, errs := RunBatch(ctx, cfgs, opts)

	if errs[2] == nil {
		t.Fatalf("oversized lane completed under a %d-cycle budget: %+v", opts.MaxCycles, results[2])
	}
	if !errors.Is(errs[2], ErrBudget) {
		t.Errorf("oversized lane error = %v, want ErrBudget", errs[2])
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		single, err := RunContext(ctx, cfgs[i], opts)
		if err != nil {
			t.Fatalf("lane %d single: %v", i, err)
		}
		requireIdentical(t, "survivor", single, results[i])
	}
}

// TestBatchSnapshotOptsRejected pins the batch form's refusal of
// per-run snapshot state: every affected lane reports a classified
// ErrInvalidConfig instead of silently dropping the snapshot.
func TestBatchSnapshotOptsRejected(t *testing.T) {
	ctx := context.Background()
	cfgs := []Config{batchTestConfig("gcc", batchOrgs()[0]), batchTestConfig("li", batchOrgs()[0])}
	for _, opts := range []RunOpts{
		{SnapshotPath: t.TempDir() + "/s.snap", SnapshotAt: 1},
		{Resume: t.TempDir() + "/missing.snap"},
		{SnapshotOnAbort: t.TempDir() + "/a.snap"},
	} {
		if _, err := NewBatch(ctx, cfgs, opts); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("NewBatch with %+v: err = %v, want ErrInvalidConfig", opts, err)
		}
		_, errs := RunBatch(ctx, cfgs, opts)
		for i, err := range errs {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("RunBatch lane %d with %+v: err = %v, want ErrInvalidConfig", i, opts, err)
			}
		}
	}
}

// TestBatchSampledFallsBack: sampled configs cannot share lockstep
// rounds, so RunBatch must route them through the per-run path and
// still return a sampled result at the right index.
func TestBatchSampledFallsBack(t *testing.T) {
	ctx := context.Background()
	opts := RunOpts{Hash: true}
	sampled := batchTestConfig("gcc", batchOrgs()[0])
	sampled.MeasureInsts = 60_000
	sampled.Sample = &SampleSpec{IntervalInsts: 20_000, WindowInsts: 4_000, WarmupInsts: 1_000}
	cfgs := []Config{batchTestConfig("li", batchOrgs()[1]), sampled}

	single, err := RunContext(ctx, sampled, opts)
	if err != nil {
		t.Fatalf("sampled single: %v", err)
	}
	results, errs := RunBatch(ctx, cfgs, opts)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if results[1].Sampled == nil {
		t.Fatal("sampled lane lost its sampling summary")
	}
	if results[1].Cycles != single.Cycles || results[1].IPC != single.IPC || results[1].StreamHash != single.StreamHash {
		t.Errorf("sampled lane diverges: batch %+v vs single %+v", results[1], single)
	}
	// A sampled lane in NewBatch directly is a configuration error.
	b, err := NewBatch(ctx, cfgs, opts)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	defer b.Close()
	for b.Step() {
	}
	_, lerrs := b.Results()
	if !errors.Is(lerrs[1], ErrInvalidConfig) {
		t.Errorf("direct NewBatch sampled lane: err = %v, want ErrInvalidConfig", lerrs[1])
	}
}

// TestBatchInvalidLaneIsolated: a broken config must fail its own lane
// only; siblings still produce bit-identical results.
func TestBatchInvalidLaneIsolated(t *testing.T) {
	ctx := context.Background()
	opts := RunOpts{Hash: true}
	good := batchTestConfig("gcc", batchOrgs()[0])
	bad := batchTestConfig("no-such-benchmark", batchOrgs()[0])
	badMem := batchTestConfig("li", batchOrgs()[0])
	badMem.Memory.L1.Bytes = 12345 // not a power-of-two geometry

	results, errs := RunBatch(ctx, []Config{bad, good, badMem}, opts)
	if !errors.Is(errs[0], ErrInvalidConfig) {
		t.Errorf("bad benchmark lane: err = %v, want ErrInvalidConfig", errs[0])
	}
	if !errors.Is(errs[2], ErrInvalidConfig) {
		t.Errorf("bad memory lane: err = %v, want ErrInvalidConfig", errs[2])
	}
	if errs[1] != nil {
		t.Fatalf("good lane: %v", errs[1])
	}
	single, err := RunContext(ctx, good, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "survivor", single, results[1])
}

// TestBatchCancelledContext: a cancelled caller context aborts every
// lane with ErrAborted, and the watcher goroutine is reaped.
func TestBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{baseConfig("gcc"), baseConfig("li")}
	_, errs := RunBatch(ctx, cfgs, RunOpts{})
	for i, err := range errs {
		if !errors.Is(err, ErrAborted) {
			t.Errorf("lane %d: err = %v, want ErrAborted", i, err)
		}
	}
}

// TestBatchEmpty: a zero-config batch completes immediately.
func TestBatchEmpty(t *testing.T) {
	results, errs := RunBatch(context.Background(), nil, RunOpts{})
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d results, %d errors", len(results), len(errs))
	}
}

// TestBatchRingGrowth forces ring growth by batching lanes whose
// prewarm windows differ (distinct streams) alongside a very long
// measured window, then checks identity still holds.
func TestBatchRingGrowth(t *testing.T) {
	opts := RunOpts{Hash: true}
	ctx := context.Background()
	cfg := batchTestConfig("database", batchOrgs()[0])
	cfg.MeasureInsts = 120_000 // many ring refills and compactions
	single, err := RunContext(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := RunBatch(ctx, []Config{cfg}, opts)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	requireIdentical(t, "long", single, results[0])
}
