package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

func snapTestConfig(measure uint64) sim.Config {
	return sim.Config{
		Benchmark:    "gcc",
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
		PrewarmInsts: 100_000,
		WarmupInsts:  5_000,
		MeasureInsts: measure,
	}
}

// TestSnapshotDirAbortResume pins budget-truncated progress: a job
// killed by its cycle budget parks an abort snapshot; re-submitting
// (after Forget — failures are memoized) resumes and eventually
// completes with the exact cold-run result.
func TestSnapshotDirAbortResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := snapTestConfig(40_000)

	cold, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.RunOne(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(Options{Workers: 1, SnapshotDir: dir, SimMaxCycles: 5_000, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	attempts := 0
	for {
		attempts++
		if attempts > 50 {
			t.Fatal("abort/resume chain did not terminate")
		}
		got, err = r.RunOne(ctx, cfg)
		if err == nil {
			break
		}
		if !errors.Is(err, sim.ErrBudget) {
			t.Fatalf("attempt %d: %v", attempts, err)
		}
		if _, serr := os.Stat(filepath.Join(dir, "abort-"+mustKey(t, cfg)+".json")); serr != nil {
			t.Fatalf("attempt %d failed with no abort snapshot parked: %v", attempts, serr)
		}
		if ferr := r.Forget(cfg); ferr != nil {
			t.Fatal(ferr)
		}
	}
	if attempts < 2 {
		t.Fatal("cycle budget of 5000 completed in one attempt; the resume path was never exercised")
	}
	t.Logf("converged after %d attempts", attempts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("abort/resume result diverges from cold run:\ncold %+v\ngot  %+v", want, got)
	}
	if _, serr := os.Stat(filepath.Join(dir, "abort-"+mustKey(t, cfg)+".json")); !errors.Is(serr, os.ErrNotExist) {
		t.Fatal("completed job left its abort snapshot behind")
	}
}

// TestSnapshotDirCorruptFallsBackCold: a quarantined abort snapshot
// must cost one cold re-run, not the job.
func TestSnapshotDirCorruptFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := snapTestConfig(40_000)

	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A budget-truncated attempt parks the abort snapshot...
	parker, err := New(Options{Workers: 1, SnapshotDir: dir, SimMaxCycles: 5_000, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parker.RunOne(ctx, cfg); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("budgeted run: err = %v, want ErrBudget", err)
	}
	if err := parker.Forget(cfg); err != nil {
		t.Fatal(err)
	}
	// ...which is then torn in place.
	abortPath := filepath.Join(dir, "abort-"+mustKey(t, cfg)+".json")
	if err := os.WriteFile(abortPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Workers: 1, SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunOne(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corrupt-fallback result diverges:\nwant %+v\ngot  %+v", want, got)
	}
	if _, err := os.Stat(abortPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(abortPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("completed job left an abort snapshot behind")
	}
}

// TestSnapshotDirRejectsPrewarmBoundary: older builds wrote
// end-of-prewarm snapshots (phase warmup, nothing remaining). Resuming
// one must fail closed with ErrSnapshot, and a runner that finds one
// parked must fall back to a cold run identical to sim.Run.
func TestSnapshotDirRejectsPrewarmBoundary(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := snapTestConfig(40_000).WithDefaults()

	mid := filepath.Join(dir, "mid.json")
	if _, err := sim.RunContext(ctx, cfg, sim.RunOpts{SnapshotPath: mid, SnapshotAt: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := sim.ReadSnapshot(mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Phase, st.Remaining = "warmup", 0
	abortPath := filepath.Join(dir, "abort-"+mustKey(t, cfg)+".json")
	if err := sim.WriteSnapshot(abortPath, st, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(ctx, cfg, sim.RunOpts{Resume: abortPath}); !errors.Is(err, sim.ErrSnapshot) {
		t.Fatalf("prewarm-boundary resume: err = %v, want ErrSnapshot", err)
	}

	// A rejected snapshot is left in place (only unreadable files are
	// quarantined), so the runner below meets it too.
	if _, err := os.Stat(abortPath); err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshotSim(dir, sim.RunOpts{})(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("fallback result diverges from sim.Run:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestForget: a memoized failure is replayed until Forget clears it.
func TestForget(t *testing.T) {
	calls := 0
	r, err := New(Options{Workers: 1, RetryBackoff: -1, Sim: func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		calls++
		if calls == 1 {
			return sim.Result{}, sim.ErrBudget // fatal, not retried
		}
		return sim.Result{Benchmark: cfg.Benchmark}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := snapTestConfig(40_000)
	if _, err := r.RunOne(ctx, cfg); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("first run: err=%v, want ErrBudget", err)
	}
	if _, err := r.RunOne(ctx, cfg); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("memoized failure not replayed: err=%v", err)
	}
	if calls != 1 {
		t.Fatalf("memoized failure re-simulated: %d calls", calls)
	}
	if err := r.Forget(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunOne(ctx, cfg); err != nil {
		t.Fatalf("post-Forget run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("Forget did not force re-execution: %d calls", calls)
	}
}
