package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hbcache/internal/isa"
	"hbcache/internal/workload"
)

// hookSource wraps every source the next runs build; the hook is
// removed when the test ends. The tests using it are not parallel, so
// no other run can see it.
func hookSource(t *testing.T, wrap func(workload.Source) workload.Source) {
	t.Helper()
	testSourceHook = wrap
	t.Cleanup(func() { testSourceHook = nil })
}

// trippedSource calls trip once, on the first call of the method named
// by on ("regions", "warm", or "fill" — the third Fill, so the core
// has started timing), then behaves as the wrapped source.
type trippedSource struct {
	workload.Source
	on    string
	trip  func()
	fills int
	once  sync.Once
}

func (s *trippedSource) fire(method string) {
	if s.on == method {
		s.once.Do(s.trip)
	}
}

func (s *trippedSource) Regions() []workload.RegionInfo {
	s.fire("regions")
	return s.Source.Regions()
}

func (s *trippedSource) Warm(n int, addrs, branches []uint64) (int, int) {
	s.fire("warm")
	return s.Source.Warm(n, addrs, branches)
}

func (s *trippedSource) Fill(dst []isa.Inst) {
	if s.fills++; s.fills == 3 {
		s.fire("fill")
	}
	s.Source.Fill(dst)
}

// waitGoroutines waits briefly for goroutines that have signalled
// their exit to finish it, then fails if more than base remain.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before the run, %d after\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunContextGoroutineHygiene: whichever way a run ends, the
// read-ahead producer and the ctx watcher are gone when RunContext
// returns.
func TestRunContextGoroutineHygiene(t *testing.T) {
	small := baseConfig("gcc")
	small.PrewarmInsts = 20_000
	long := baseConfig("gcc")
	long.PrewarmInsts = DefaultPrewarm
	long.MeasureInsts = 2_000_000

	// checkFail is a checkpoint in which one waiting instruction
	// counts one outstanding operand where it has two. It restores
	// cleanly; once its first producer completes, it is ready while the
	// second still holds a wake edge to it, which the invariant checker
	// rejects.
	checkFail := filepath.Join(t.TempDir(), "bad.json")
	if _, err := RunContext(context.Background(), small, RunOpts{MaxCycles: 5_000, SnapshotOnAbort: checkFail}); !errors.Is(err, ErrBudget) {
		t.Fatalf("writing the checkpoint: %v", err)
	}
	st, err := ReadSnapshot(checkFail, nil)
	if err != nil {
		t.Fatal(err)
	}
	const stWaiting = 0
	corrupted := false
	for i, n := range st.CPU.NReady {
		if n == 2 && st.CPU.SlotState[i] == stWaiting {
			st.CPU.NReady[i] = 1
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("checkpoint holds no instruction waiting on two operands; pick another budget")
	}
	if err := WriteSnapshot(checkFail, st, nil); err != nil {
		t.Fatal(err)
	}

	bad := small
	bad.Benchmark = "no-such-benchmark"

	cases := []struct {
		name   string
		cfg    Config
		opts   RunOpts
		cancel string // trippedSource method that cancels the run's ctx
		want   error  // nil: the run succeeds
	}{
		{name: "success", cfg: small},
		{name: "cancel in region sweep", cfg: long, cancel: "regions", want: ErrAborted},
		{name: "cancel in fast-forward", cfg: long, cancel: "warm", want: ErrAborted},
		{name: "cancel mid-timed", cfg: long, cancel: "fill", want: ErrAborted},
		{name: "wall budget", cfg: long, opts: RunOpts{Timeout: 20 * time.Millisecond}, want: ErrBudget},
		{name: "cycle budget", cfg: long, opts: RunOpts{MaxCycles: 10_000}, want: ErrBudget},
		{name: "invariant check", cfg: small, opts: RunOpts{Check: true, Resume: checkFail}, want: ErrCheckFailed},
		{name: "constructor error", cfg: bad, want: ErrInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel != "" {
				hookSource(t, func(src workload.Source) workload.Source {
					return &trippedSource{Source: src, on: tc.cancel, trip: cancel}
				})
			}
			base := runtime.NumGoroutine()
			_, err := RunContext(ctx, tc.cfg, tc.opts)
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("run failed: %v", err)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			waitGoroutines(t, base)
		})
	}

	t.Run("validate", func(t *testing.T) {
		base := runtime.NumGoroutine()
		if err := long.WithDefaults().Validate(); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("Validate left %d goroutines running, %d before", n, base)
		}
	})
}

// panickySource panics on the given method's call number after, on
// whichever goroutine calls it.
type panickySource struct {
	workload.Source
	on    string
	after int
	calls int
}

func (s *panickySource) count(method string) {
	if s.on != method {
		return
	}
	if s.calls++; s.calls > s.after {
		panic(fmt.Sprintf("source %s broke", method))
	}
}

func (s *panickySource) Warm(n int, addrs, branches []uint64) (int, int) {
	s.count("warm")
	return s.Source.Warm(n, addrs, branches)
}

func (s *panickySource) Fill(dst []isa.Inst) {
	s.count("fill")
	s.Source.Fill(dst)
}

// TestReadAheadPanicSurfaces: a panic inside the producer reaches the
// caller of RunContext, on the caller's goroutine, where a recover (the
// runner's) sees it; the process survives and no goroutine is left.
func TestReadAheadPanicSurfaces(t *testing.T) {
	cfg := baseConfig("gcc")
	cfg.PrewarmInsts = 50_000
	for _, tc := range []struct{ on string }{{"warm"}, {"fill"}} {
		t.Run(tc.on, func(t *testing.T) {
			hookSource(t, func(src workload.Source) workload.Source {
				return &panickySource{Source: src, on: tc.on, after: 10}
			})
			base := runtime.NumGoroutine()
			got := func() (p any) {
				defer func() { p = recover() }()
				_, err := RunContext(context.Background(), cfg, RunOpts{})
				t.Errorf("RunContext returned %v instead of panicking", err)
				return nil
			}()
			if got == nil {
				t.Fatal("no panic reached the caller")
			}
			want := "source " + tc.on + " broke"
			if msg := fmt.Sprint(got); !strings.Contains(msg, want) {
				t.Fatalf("recovered %q, want it to carry %q", msg, want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestAbortCheckpointsAtReadAheadOffsets: cycle budgets that stop the
// core at different offsets inside a read-ahead chunk each park a
// checkpoint whose stream state is the core's fetch position — not the
// producer's, which runs ahead — and resuming each reproduces the
// straight-through run byte for byte.
func TestAbortCheckpointsAtReadAheadOffsets(t *testing.T) {
	cfg := baseConfig("gcc")
	cfg.PrewarmInsts = 20_000
	cfg = cfg.WithDefaults()
	straight, err := RunContext(context.Background(), cfg, RunOpts{Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(straight)
	if err != nil {
		t.Fatal(err)
	}
	offsets := map[uint64]bool{}
	budgets := []uint64{1_500, 4_100, 7_300, 9_900, 13_100, 16_700, 20_500, 24_100, 27_000}
	for _, budget := range budgets {
		path := filepath.Join(t.TempDir(), "abort.json")
		_, err := RunContext(context.Background(), cfg, RunOpts{Hash: true, MaxCycles: budget, SnapshotOnAbort: path})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: err = %v, want ErrBudget", budget, err)
		}
		st, err := ReadSnapshot(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every instruction the core took from the stream entered the
		// window under the next sequence number (they start at 1) or
		// waits as the stalled pending instruction.
		fetched := cfg.PrewarmInsts + st.CPU.NextSeq - 1
		if st.CPU.PendingValid {
			fetched++
		}
		if st.Gen.N != fetched {
			t.Fatalf("budget %d: checkpoint stream at %d, core had fetched %d", budget, st.Gen.N, fetched)
		}
		offsets[(st.Gen.N-cfg.PrewarmInsts)%readAheadRecs] = true

		resumed, err := RunContext(context.Background(), cfg, RunOpts{Hash: true, Resume: path})
		if err != nil {
			t.Fatalf("budget %d: resume: %v", budget, err)
		}
		got, err := json.Marshal(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) || resumed.StreamHash != straight.StreamHash {
			t.Fatalf("budget %d: resumed run diverged:\nstraight %s\nresumed  %s", budget, want, got)
		}
	}
	if len(offsets) < 8 {
		t.Fatalf("checkpoints landed at only %d distinct offsets inside a chunk; pick budgets that spread them", len(offsets))
	}
}

// TestReadAheadChunkAllocFree pins the read-ahead at steady state, in
// the style of the hot-loop pins in the repository root's
// alloc_test.go (the type is unexported, so the pin lives here):
// reading a whole timed chunk through it — the producer refilling the
// chunk the read released, channel hand-offs both ways — allocates
// nothing.
func TestReadAheadChunkAllocFree(t *testing.T) {
	cfg := baseConfig("gcc")
	src, err := cfg.newSource()
	if err != nil {
		t.Fatal(err)
	}
	r := newReadAhead(src, cfg.newSource)
	defer r.close()
	readChunk := func() {
		for range readAheadRecs {
			if _, ok := r.Next(); !ok {
				t.Fatal("synthetic stream ended")
			}
		}
	}
	for range 4 * readAheadDepth {
		readChunk()
	}
	if n := testing.AllocsPerRun(1000, readChunk); n != 0 {
		t.Errorf("read-ahead: %.1f allocs per timed chunk, want 0", n)
	}
}

// TestReadAheadMatchesInline drives the read-ahead through random
// interleavings of timed reads and fast-forwards of random lengths —
// short ones that end inside the records already read ahead, long
// ones that open warm spans — against a twin source read inline. Every
// record, every functional footprint, the position, and the exported
// state at the read position must agree; a trace-backed stream must
// end exactly where its TraceReader does.
func TestReadAheadMatchesInline(t *testing.T) {
	traceData, err := workload.RecordTrace("li", 3, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.OpenTrace(traceData)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() (workload.Source, error){
		"generator": func() (workload.Source, error) { return workload.New("gcc", 7) },
		"trace":     func() (workload.Source, error) { return tr.NewReader(), nil },
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			src, _ := mk()
			twin, _ := mk()
			r := newReadAhead(src, mk)
			defer r.close()
			rng := rand.New(rand.NewSource(1))
			addrs := make([]uint64, 4096)
			branches := make([]uint64, 4096)
			var gotA, gotB []uint64
			ended := false
			for step := 0; step < 400 && !ended; step++ {
				n := rng.Intn(3000) + 1
				if rng.Intn(3) == 0 {
					n = rng.Intn(20) + 1
				}
				if rng.Intn(2) == 0 {
					for i := 0; i < n; i++ {
						got, ok := r.Next()
						want, wok := twin.Next()
						if got != want || ok != wok {
							t.Fatalf("step %d record %d: read-ahead %+v %v, inline %+v %v", step, i, got, ok, want, wok)
						}
						if !ok {
							ended = true
							break
						}
					}
				} else {
					gotA, gotB = gotA[:0], gotB[:0]
					for left := uint64(n); left > 0; {
						a, b, k := r.warm(left)
						gotA, gotB = append(gotA, a...), append(gotB, b...)
						left -= k
					}
					na, nb := twin.Warm(n, addrs, branches)
					if !slices.Equal(gotA, addrs[:na]) || !slices.Equal(gotB, branches[:nb]) {
						t.Fatalf("step %d: fast-forward of %d reported %d addrs %d branches, inline %d and %d (or different values)", step, n, len(gotA), len(gotB), na, nb)
					}
				}
				if rng.Intn(8) == 0 {
					st, err := r.exportState()
					if err != nil {
						t.Fatal(err)
					}
					if want := twin.ExportState(); !reflect.DeepEqual(st, want) {
						t.Fatalf("step %d: exported state at %d differs from the inline source's at %d", step, st.N, want.N)
					}
				}
			}
			if name == "trace" && !ended {
				t.Fatal("never read to the end of the trace")
			}
		})
	}
}
