package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	s, ok := parseLine("BenchmarkFullSimulation-8  \t  42\t  27012345 ns/op  9624453 insts/sec  12345 B/op  378 allocs/op")
	if !ok {
		t.Fatal("result line not parsed")
	}
	if s.Name != "BenchmarkFullSimulation" {
		t.Errorf("name %q, want BenchmarkFullSimulation", s.Name)
	}
	if s.Iterations != 42 {
		t.Errorf("iterations %d, want 42", s.Iterations)
	}
	want := map[string]float64{"ns/op": 27012345, "insts/sec": 9624453, "B/op": 12345, "allocs/op": 378}
	for unit, v := range want {
		if s.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, s.Metrics[unit], v)
		}
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  \thbcache\t12.3s",
		"== Figure 3: misses/instruction vs cache size ==",
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoMetrics-8 100",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as a result", line)
		}
	}
}

func TestSampledSpeedup(t *testing.T) {
	samples := []sample{
		{Name: "BenchmarkFullSimulation", Metrics: map[string]float64{"ns/op": 1}},
		{Name: "BenchmarkSampledSimulation", Metrics: map[string]float64{"ns/op": 1, "sampled-speedup": 12.0}},
		{Name: "BenchmarkSampledSimulation", Metrics: map[string]float64{"ns/op": 1, "sampled-speedup": 12.4}},
	}
	if got := sampledSpeedup(samples); got != 12.2 {
		t.Errorf("sampledSpeedup = %v, want 12.2", got)
	}
	if got := sampledSpeedup(samples[:1]); got != 0 {
		t.Errorf("sampledSpeedup without the metric = %v, want 0", got)
	}
}

func TestBatchMetrics(t *testing.T) {
	bs := func(n string, cps float64) sample {
		return sample{Name: "BenchmarkBatchSweep/b=" + n, Metrics: map[string]float64{"ns/op": 1, "configs/s/core": cps}}
	}
	samples := []sample{
		{Name: "BenchmarkFullSimulation", Metrics: map[string]float64{"ns/op": 1}},
		// -count=2 style repeats: means are 10 (b=1), 19 (b=4), 21 (b=8).
		bs("1", 9), bs("1", 11),
		bs("4", 18), bs("4", 20),
		bs("8", 20), bs("8", 22),
	}
	cps, speedup := batchMetrics(samples)
	if cps != 21 {
		t.Errorf("configs_per_sec_core = %v, want 21 (best batch-size mean)", cps)
	}
	if speedup != 2.1 {
		t.Errorf("batch_speedup = %v, want 2.1", speedup)
	}

	// Without a b=1 sample there is no speedup denominator.
	cps, speedup = batchMetrics(samples[3:])
	if cps != 21 || speedup != 0 {
		t.Errorf("without b=1: cps=%v speedup=%v, want 21, 0", cps, speedup)
	}
	// No batch sweep at all: both omitted.
	if cps, speedup = batchMetrics(samples[:1]); cps != 0 || speedup != 0 {
		t.Errorf("without batch sweep: cps=%v speedup=%v, want 0, 0", cps, speedup)
	}
}

// writeBaseline marshals a report into a temp file for compareBaseline.
func writeBaseline(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	base := report{Commit: "abc1234", ConfigsPerSecCore: 20, BatchSpeedup: 2.0}
	path := writeBaseline(t, base)

	// Within threshold: 5% down against a 10% limit passes.
	ok := report{ConfigsPerSecCore: 19, BatchSpeedup: 2.1}
	if err := compareBaseline(ok, path, 10); err != nil {
		t.Errorf("5%% regression under a 10%% limit: %v", err)
	}
	// Beyond threshold: 25% down fails with the limit in the message.
	bad := report{ConfigsPerSecCore: 15, BatchSpeedup: 1.5}
	err := compareBaseline(bad, path, 10)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("25%% regression under a 10%% limit: err=%v, want regression failure", err)
	}
	// Report-only mode (limit 0) never fails.
	if err := compareBaseline(bad, path, 0); err != nil {
		t.Errorf("report-only comparison: %v", err)
	}
	// Metric missing on either side: skip with a notice, never fail —
	// even with the regression gate armed. A pre-PR-8 baseline has no
	// configs_per_sec_core at all; CI must not fail on history.
	if err := compareBaseline(report{}, path, 10); err != nil {
		t.Errorf("missing metric in new report: %v", err)
	}
	legacy := writeBaseline(t, report{Commit: "old0000", SampledSpeedup: 11})
	if err := compareBaseline(bad, legacy, 10); err != nil {
		t.Errorf("baseline predating the metric: %v", err)
	}
	// Unreadable or corrupt baselines: hard errors only when gating;
	// report-only mode degrades to a notice.
	missing := filepath.Join(t.TempDir(), "nope.json")
	if err := compareBaseline(ok, missing, 10); err == nil {
		t.Error("missing baseline file under a gate: want error")
	}
	if err := compareBaseline(ok, missing, 0); err != nil {
		t.Errorf("missing baseline file in report-only mode: %v", err)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBaseline(ok, garbage, 10); err == nil {
		t.Error("corrupt baseline file under a gate: want error")
	}
	if err := compareBaseline(ok, garbage, 0); err != nil {
		t.Errorf("corrupt baseline file in report-only mode: %v", err)
	}
}

func TestReadReportStampsHost(t *testing.T) {
	out := "goos: linux\ngoarch: amd64\npkg: hbcache\ncpu: Test CPU @ 3.00GHz\n" +
		"BenchmarkWorkloadWarm-2  100  10.5 ns/op\nPASS\n"
	rep, err := readReport(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Host.CPU != "Test CPU @ 3.00GHz" || rep.Host.GOMAXPROCS != 2 || rep.Host.NumCPU < 1 {
		t.Errorf("host = %+v, want the cpu header, GOMAXPROCS 2 and this machine's CPU count", rep.Host)
	}
	// go test drops the name suffix when GOMAXPROCS is 1.
	if rep, err = readReport(strings.NewReader("BenchmarkX 100 1 ns/op\n")); err != nil || rep.Host.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed names: GOMAXPROCS %d, err %v; want 1", rep.Host.GOMAXPROCS, err)
	}
	if _, err := readReport(strings.NewReader("PASS\n")); err == nil {
		t.Error("output without results: want error")
	}
}

func TestCompareBaselineRefusesOtherHost(t *testing.T) {
	host := hostInfo{CPU: "Test CPU", NumCPU: 2, GOMAXPROCS: 2}
	cur := report{GoVersion: "go1.24.0", Host: host, ConfigsPerSecCore: 10}
	same := writeBaseline(t, report{Commit: "same000", GoVersion: "go1.24.0", Host: host, ConfigsPerSecCore: 20})
	if err := compareBaseline(cur, same, 10); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("same-host 50%% regression under a 10%% gate: err=%v, want regression failure", err)
	}
	for name, base := range map[string]report{
		"cpu":        {Host: hostInfo{CPU: "Other CPU", NumCPU: 2, GOMAXPROCS: 2}},
		"gomaxprocs": {Host: hostInfo{CPU: "Test CPU", NumCPU: 2, GOMAXPROCS: 1}},
		"num cpu":    {Host: hostInfo{CPU: "Test CPU", NumCPU: 8, GOMAXPROCS: 2}},
		"no host":    {},
	} {
		base.GoVersion, base.ConfigsPerSecCore = "go1.24.0", 10
		path := writeBaseline(t, base)
		if err := compareBaseline(cur, path, 10); err == nil || !strings.Contains(err.Error(), "different host") {
			t.Errorf("%s differs, gated: err=%v, want refusal", name, err)
		}
		if err := compareBaseline(cur, path, 0); err != nil {
			t.Errorf("%s differs, report-only: %v", name, err)
		}
	}
	other := writeBaseline(t, report{GoVersion: "go1.23.0", Host: host, ConfigsPerSecCore: 10})
	if err := compareBaseline(cur, other, 10); err == nil {
		t.Error("different Go version, gated: want refusal")
	}
}

func TestParseLineKeepsNonNumericSuffix(t *testing.T) {
	s, ok := parseLine("BenchmarkFoo/sub-case 10 5.0 ns/op")
	if !ok {
		t.Fatal("not parsed")
	}
	if s.Name != "BenchmarkFoo/sub-case" {
		t.Errorf("name %q, want BenchmarkFoo/sub-case", s.Name)
	}
}

// TestNsPerOpDeltas: every benchmark both reports ran gets one line
// with its mean ns/op over the -count samples, the baseline's mean and
// the change, in the new report's order; benchmarks on one side only
// are left out.
func TestNsPerOpDeltas(t *testing.T) {
	ns := func(name string, v float64) sample {
		return sample{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": v}}
	}
	rep := report{Benchmarks: []sample{
		ns("BenchmarkDefaultSimulation/streams=1", 100),
		ns("BenchmarkFullSimulation", 30),
		ns("BenchmarkDefaultSimulation/streams=1", 80),
		ns("BenchmarkNew", 5),
	}}
	base := report{Benchmarks: []sample{
		ns("BenchmarkFullSimulation", 30),
		ns("BenchmarkDefaultSimulation/streams=1", 120),
		ns("BenchmarkGone", 7),
	}}
	got := nsPerOpDeltas(rep, base)
	want := []string{
		"BenchmarkDefaultSimulation/streams=1 90 ns/op vs 120 (-25.0%)",
		"BenchmarkFullSimulation 30 ns/op vs 30 (+0.0%)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("deltas:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The lines are report-only: a large ns/op regression never fails
	// the comparison, even with the configs_per_sec_core gate armed.
	slow := report{Benchmarks: []sample{ns("BenchmarkFullSimulation", 300)}, ConfigsPerSecCore: 20}
	path := writeBaseline(t, report{Benchmarks: []sample{ns("BenchmarkFullSimulation", 30)}, ConfigsPerSecCore: 20})
	if err := compareBaseline(slow, path, 10); err != nil {
		t.Fatalf("ns/op regression failed the comparison: %v", err)
	}
}
