package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"hbcache/internal/mem"
)

// TestSweepSpecConfigsCartesian pins the expansion order and the
// field plumbing from a parsed spec into sim configs: every
// combination appears, innermost axis (line buffer) fastest, and each
// config carries the spec's windows and seed.
func TestSweepSpecConfigsCartesian(t *testing.T) {
	spec := testSpec()
	spec.ports = []mem.PortConfig{{Kind: mem.DuplicatePorts}, {Kind: mem.IdealPorts, Count: 2}}
	spec.lbs = []bool{false, true}
	cfgs := spec.configs()
	want := len(spec.benches) * len(spec.sizes) * len(spec.hits) * len(spec.ports) * len(spec.lbs)
	if len(cfgs) != want {
		t.Fatalf("configs() = %d points, want %d", len(cfgs), want)
	}
	if cfgs[0].Benchmark != "gcc" || cfgs[0].Memory.L1.LineBuffer {
		t.Errorf("first point = %s lb=%v, want gcc lb=false", cfgs[0].Benchmark, cfgs[0].Memory.L1.LineBuffer)
	}
	if !cfgs[1].Memory.L1.LineBuffer {
		t.Error("line buffer must be the fastest-varying axis")
	}
	last := cfgs[len(cfgs)-1]
	if last.Benchmark != "tomcatv" || last.Memory.L1.Bytes != 32<<10 {
		t.Errorf("last point = %s/%d bytes, want tomcatv/32768", last.Benchmark, last.Memory.L1.Bytes)
	}
	for i, cfg := range cfgs {
		if cfg.Seed != spec.seed || cfg.MeasureInsts != spec.insts || cfg.PrewarmInsts != spec.prewarm || cfg.WarmupInsts != spec.warmup {
			t.Fatalf("point %d lost spec plumbing: %+v", i, cfg)
		}
	}
}

// TestSweepWithCheckFlag runs a one-point sweep with -check enabled
// end to end: the invariant checker must stay silent on a sound
// machine and the sweep must emit its CSV row as usual.
func TestSweepWithCheckFlag(t *testing.T) {
	spec := testSpec()
	spec.benches = []string{"gcc"}
	spec.sizes = []int{8 << 10}
	spec.hits = []int{1}
	spec.check = true
	csv := sweepCSV(t, spec)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("checked sweep wrote %d lines, want header + 1 row:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[1], "gcc,8192,1,duplicate,") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestSweepRejectsBadSpecs: flag combinations and modes the sweep
// cannot honor fail before anything runs, naming what was wrong.
func TestSweepRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*sweepSpec)
		names []string
	}{
		// Batch lanes cannot park abort checkpoints.
		{"batch with snapshot dir", func(s *sweepSpec) { s.batchSize, s.snapshotDir = 8, t.TempDir() }, []string{"-batch", "-snapshot-dir"}},
		{"removed stream prewarm mode", func(s *sweepSpec) { s.prewarmMode = "stream" }, []string{"prewarm mode", "stream"}},
	} {
		spec := testSpec()
		tc.edit(&spec)
		_, err := runSweep(context.Background(), io.Discard, io.Discard, spec)
		if err == nil {
			t.Errorf("%s: runSweep succeeded, want an error", tc.name)
			continue
		}
		for _, n := range tc.names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, n)
			}
		}
	}
}
