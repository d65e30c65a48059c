package hbcache_test

// Regression pins: headline measurements of the calibrated model,
// recorded at calibration time and asserted within a ±12% band. These
// exist to catch accidental drift in the simulator or the workload
// models — an intentional recalibration should update the pins (and
// EXPERIMENTS.md) together.

import (
	"math"
	"testing"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/sim"
)

// pinnedIPC holds baseline-machine IPCs (32 KB 1~ duplicate cache with a
// line buffer, seed 1) measured at the fidelity used below.
var pinnedIPC = map[string]float64{
	"gcc":      1.70,
	"li":       1.76,
	"compress": 1.83,
	"tomcatv":  1.89,
	"su2cor":   1.96,
	"apsi":     2.00,
	"pmake":    1.86,
	"database": 1.01,
	"vcs":      1.32,
}

func TestRegressionBaselineIPC(t *testing.T) {
	if testing.Short() {
		t.Skip("regression pins need full-fidelity runs")
	}
	for bench, want := range pinnedIPC {
		r, err := sim.Run(sim.Config{
			Benchmark:    bench,
			Seed:         1,
			CPU:          cpu.DefaultConfig(),
			Memory:       mem.DefaultSRAMSystem(32<<10, 1, mem.PortConfig{Kind: mem.DuplicatePorts}, true),
			PrewarmInsts: 600_000,
			WarmupInsts:  20_000,
			MeasureInsts: 120_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if math.Abs(r.IPC-want)/want > 0.12 {
			t.Errorf("%s: IPC = %.3f, pinned %.2f (±12%%) — model drift? update pins deliberately", bench, r.IPC, want)
		}
	}
}

// pinnedMissRate holds Figure 3 points (misses/instruction) for the
// representative benchmarks at 32 KB.
var pinnedMissRate = map[string]float64{
	"gcc":      0.023,
	"tomcatv":  0.056,
	"database": 0.053,
}

func TestRegressionMissRates(t *testing.T) {
	if testing.Short() {
		t.Skip("regression pins need full-fidelity runs")
	}
	for bench, want := range pinnedMissRate {
		got, err := sim.MissRatePoint(bench, 1, 32<<10, 300_000)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: misses/inst = %.4f, pinned %.3f (±15%%)", bench, got, want)
		}
	}
}
