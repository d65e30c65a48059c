package sim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/workload"
)

// resumeOrgs are the three cache organizations the round-trip golden
// test crosses with every workload: ideal multi-porting, interleaved
// banks, and a duplicated cache with a line buffer — together they
// exercise every serialized hierarchy component (port scheduler, MSHRs,
// line buffer, victim-less and victim arrays).
var resumeOrgs = []struct {
	name  string
	ports mem.PortConfig
	lb    bool
}{
	{"ideal", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false},
	{"banked", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false},
	{"linebuffer", mem.PortConfig{Kind: mem.DuplicatePorts}, true},
}

// resumeConfig uses reduced windows: the bit-identity claim is about
// state capture, not steady-state fidelity, and 27 workload x org cases
// run twice each.
func resumeConfig(bench string, ports mem.PortConfig, lb bool) Config {
	return Config{
		Benchmark:    bench,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(32<<10, 1, ports, lb),
		PrewarmInsts: 100_000,
		WarmupInsts:  5_000,
		MeasureInsts: 40_000,
	}
}

// TestResumeBitIdentical is the tentpole's golden test: for every
// workload and cache organization, a run checkpointed mid-flight and
// resumed in a fresh process-state must reproduce the straight-through
// run bit-identically — every Result field including the FNV hash over
// the retired instruction stream.
func TestResumeBitIdentical(t *testing.T) {
	for _, org := range resumeOrgs {
		for _, bench := range workload.BenchmarkNames() {
			t.Run(org.name+"/"+bench, func(t *testing.T) {
				cfg := resumeConfig(bench, org.ports, org.lb)
				snap := filepath.Join(t.TempDir(), "mid.json")
				straight, err := RunContext(context.Background(), cfg, RunOpts{
					Hash:         true,
					SnapshotPath: snap,
					SnapshotAt:   6_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(snap); err != nil {
					t.Fatalf("mid-run snapshot never written: %v", err)
				}
				resumed, err := RunContext(context.Background(), cfg, RunOpts{
					Hash:   true,
					Resume: snap,
				})
				if err != nil {
					t.Fatal(err)
				}
				if straight.StreamHash == 0 {
					t.Fatal("straight run reported no stream hash")
				}
				if !reflect.DeepEqual(straight, resumed) {
					t.Fatalf("resume diverged from straight-through run:\nstraight: %+v\nresumed:  %+v", straight, resumed)
				}
			})
		}
	}
}

// TestRestoreRoundTripStable pins the export/import fixed point on all
// three serialized subsystems at once: re-exporting a restored machine
// (the hbtrace path) must reproduce the snapshot byte-for-byte.
func TestRestoreRoundTripStable(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.DuplicatePorts}, true)
	snap := filepath.Join(t.TempDir(), "mid.json")
	if _, err := RunContext(context.Background(), cfg, RunOpts{SnapshotPath: snap, SnapshotAt: 6_000}); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	core, sys, gen, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]any{
		"cpu": {st.CPU, core.ExportState()},
		"mem": {st.Mem, sys.ExportState()},
		"gen": {st.Gen, gen.ExportState()},
	} {
		want, err := json.Marshal(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("%s state not a round-trip fixed point:\nsnapshot: %s\nrestored: %s", name, want, got)
		}
	}
}

// TestAbortResumeChain models the service's budget-truncated jobs: each
// attempt gets a small cycle budget, parks a snapshot on abort, and the
// next attempt resumes it. The chain must terminate (rebased budgets
// guarantee fixed progress per attempt) and the final result must be
// bit-identical to an untruncated run.
func TestAbortResumeChain(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	straight, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	abortPath := filepath.Join(t.TempDir(), "abort.json")
	var chained Result
	attempts := 0
	for {
		attempts++
		if attempts > 50 {
			t.Fatal("abort/resume chain did not terminate")
		}
		opts := RunOpts{Hash: true, MaxCycles: 5_000, SnapshotOnAbort: abortPath}
		if _, err := os.Stat(abortPath); err == nil {
			opts.Resume = abortPath
		}
		chained, err = RunContext(context.Background(), cfg, opts)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("attempt %d: %v", attempts, err)
		}
	}
	if attempts < 2 {
		t.Fatalf("budget of 5000 cycles finished in one attempt; the chain was never exercised")
	}
	t.Logf("converged after %d attempts", attempts)
	if !reflect.DeepEqual(straight, chained) {
		t.Fatalf("abort/resume chain diverged:\nstraight: %+v\nchained:  %+v", straight, chained)
	}
}

// TestResumeUnderCheck: a checkpoint resumes under the invariant
// checker, which picks up retirement order at the restored window's
// head instead of expecting sequence number 1 again.
func TestResumeUnderCheck(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false)
	straight, err := RunContext(context.Background(), cfg, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "abort.json")
	if _, err := RunContext(context.Background(), cfg, RunOpts{MaxCycles: 20_000, SnapshotOnAbort: snap}); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	resumed, err := RunContext(context.Background(), cfg, RunOpts{Check: true, Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, resumed) {
		t.Fatalf("checked resume diverged:\nstraight: %+v\nresumed:  %+v", straight, resumed)
	}
}

// TestResumeRejectsWrongConfig: a snapshot from one config must not
// silently seed a run of another.
func TestResumeRejectsWrongConfig(t *testing.T) {
	cfgA := resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	snap := filepath.Join(t.TempDir(), "mid.json")
	if _, err := RunContext(context.Background(), cfgA, RunOpts{SnapshotPath: snap, SnapshotAt: 6_000}); err != nil {
		t.Fatal(err)
	}
	cfgB := cfgA
	cfgB.Benchmark = "li"
	if _, err := RunContext(context.Background(), cfgB, RunOpts{Resume: snap}); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("wrong-config resume: err=%v, want ErrSnapshot", err)
	}
	cfgC := cfgA
	cfgC.Seed = 2
	if _, err := RunContext(context.Background(), cfgC, RunOpts{Resume: snap}); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("wrong-seed resume: err=%v, want ErrSnapshot", err)
	}
}

// TestResumeMissingAndCorruptSnapshot: both fall out as ErrSnapshot so
// callers (the runner) retry cold; corrupt files are quarantined.
func TestResumeMissingAndCorruptSnapshot(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	dir := t.TempDir()
	missing := filepath.Join(dir, "absent.json")
	if _, err := RunContext(context.Background(), cfg, RunOpts{Resume: missing}); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("missing snapshot: err=%v, want ErrSnapshot", err)
	}
	corrupt := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(corrupt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), cfg, RunOpts{Resume: corrupt}); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("corrupt snapshot: err=%v, want ErrSnapshot", err)
	}
	if _, err := os.Stat(corrupt + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestSampledRunCannotResume: sampling and exact resume are mutually
// exclusive by construction.
func TestSampledRunCannotResume(t *testing.T) {
	cfg := resumeConfig("gcc", mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false)
	cfg.Sample = &SampleSpec{IntervalInsts: 10_000, WindowInsts: 1_000, WarmupInsts: 500}
	_, err := RunContext(context.Background(), cfg, RunOpts{Resume: filepath.Join(t.TempDir(), "x.json")})
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("sampled resume: err=%v, want ErrInvalidConfig", err)
	}
}
