package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"hbcache/internal/sim"
)

// tiny shrinks a run to a fraction of a second: short windows, one L1
// size, and a gate sample large enough to re-run every config directly.
func tiny(workload string, trace bool) options {
	o := defaultOptions()
	o.workload, o.seed, o.trace = workload, 7, trace
	o.started = time.Now()
	o.duration = 300 * time.Millisecond
	o.prewarm, o.warmup, o.measure = 10_000, 1_000, 5_000
	o.sizes = []int{8 << 10}
	o.sample = 1000
	return o
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	d := readDeclared(t)
	for _, workload := range []string{"sweep", "jobs"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			rep, err := run(context.Background(), tiny(workload, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", workload, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", workload, trace, rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", workload, trace, len(rep.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := rep.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", workload, trace, w.Name)
				case got.Unit != w.Unit:
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", workload, trace, w.Name, got.Unit, w.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", workload, trace, w.Name, got.Value)
				}
			}
			if !strings.Contains(out.String(), "# host cpu=") {
				t.Errorf("%s trace=%t: no host stamp in output", workload, trace)
			}
		}
	}
}

func TestGateCatchesAlteredResult(t *testing.T) {
	for _, workload := range []string{"sweep", "jobs"} {
		o := tiny(workload, false)
		// One more cycle leaves IPC and the retired count plausible, so
		// only the byte comparison can notice.
		o.tamper = func(r *sim.Result) { r.Cycles++ }
		var out bytes.Buffer
		rep, err := run(context.Background(), o, &out)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: altered result passed the gate (correct=%t failed=%d)\n%s", workload, rep.Correct, rep.Failed, out.String())
		}
	}
}
