package workload

import (
	"fmt"
	"math"
	"testing"
)

// Table 2 of the paper, transcribed by hand. These rows deliberately
// repeat numbers that also live in model.go: TestTable2Fractions
// checks the generators against the Model structs, while this test
// pins both against the paper itself, so editing a constant in
// model.go cannot silently move the reference point along with it.
var paperTable2 = []struct {
	name               string
	loadPct, storePct  float64
	kernelPct, userPct float64 // shares of cycles; idle (pmake, database) omitted
}{
	{"gcc", 28.1, 12.2, 10.0, 90.0},
	{"li", 33.2, 13.0, 0.2, 99.8},
	{"compress", 34.5, 8.0, 8.4, 91.6},
	{"tomcatv", 26.9, 8.5, 0.4, 99.6},
	{"su2cor", 28.0, 6.3, 0.5, 99.5},
	{"apsi", 40.0, 11.7, 2.2, 97.8},
	{"pmake", 25.8, 11.9, 8.9, 86.0},
	{"vcs", 25.7, 15.1, 9.9, 90.1},
	{"database", 24.8, 13.6, 18.4, 17.0},
}

// TestTable2AgainstPaper regenerates every workload from seeds 1-20
// and holds its measured instruction mix to the paper's Table 2:
// loads and stores within 3 points, and the kernel share of non-idle
// execution within 5 points. The generator does not model idle time,
// so the kernel reference is K/(K+U).
func TestTable2AgainstPaper(t *testing.T) {
	if len(paperTable2) != len(BenchmarkNames()) {
		t.Fatalf("table covers %d benchmarks, models define %d", len(paperTable2), len(BenchmarkNames()))
	}
	for _, row := range paperTable2 {
		for seed := uint64(1); seed <= 20; seed++ {
			row, seed := row, seed
			t.Run(fmt.Sprintf("%s/seed%d", row.name, seed), func(t *testing.T) {
				t.Parallel()
				g := MustNew(row.name, seed)
				for i := 0; i < 200_000; i++ {
					g.Next()
				}
				if d := math.Abs(g.MeasuredLoadPct() - row.loadPct); d > 3.0 {
					t.Errorf("load%% = %.1f, paper says %.1f", g.MeasuredLoadPct(), row.loadPct)
				}
				if d := math.Abs(g.MeasuredStorePct() - row.storePct); d > 3.0 {
					t.Errorf("store%% = %.1f, paper says %.1f", g.MeasuredStorePct(), row.storePct)
				}
				wantKernel := 100 * row.kernelPct / (row.kernelPct + row.userPct)
				if d := math.Abs(g.MeasuredKernelPct() - wantKernel); d > 5.0 {
					t.Errorf("kernel%% = %.1f, paper's K/(K+U) = %.1f", g.MeasuredKernelPct(), wantKernel)
				}
			})
		}
	}
}
