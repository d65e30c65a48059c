package workload

import (
	"slices"
	"testing"

	"hbcache/internal/isa"
)

// TestFillMatchesNext pins Fill's contract: filling a span advances
// the generator exactly as the same number of Next calls, producing
// the identical records — the property the batch kernel's shared
// stream ring depends on.
func TestFillMatchesNext(t *testing.T) {
	for _, bench := range BenchmarkNames() {
		a := MustNew(bench, 3)
		b := MustNew(bench, 3)
		buf := make([]isa.Inst, 777)
		for round := 0; round < 4; round++ {
			a.Fill(buf)
			for i, got := range buf {
				want, _ := b.Next()
				if got != want {
					t.Fatalf("%s round %d inst %d: Fill %+v != Next %+v", bench, round, i, got, want)
				}
			}
		}
		if a.Emitted() != b.Emitted() {
			t.Fatalf("%s: Emitted diverged: %d vs %d", bench, a.Emitted(), b.Emitted())
		}
	}
}

// TestWarmRecordsMatchesWarm pins WarmRecords against Warm: records
// filled from one generator and drained through WarmRecords report
// exactly the addresses and branch outcomes Warm reports for the same
// span of a twin generator. The simulator's read-ahead relies on it
// when a fast-forward consumes records it had already filled.
func TestWarmRecordsMatchesWarm(t *testing.T) {
	for _, bench := range BenchmarkNames() {
		a := MustNew(bench, 5)
		b := MustNew(bench, 5)
		buf := make([]isa.Inst, 513)
		gotA, gotB := make([]uint64, len(buf)), make([]uint64, len(buf))
		wantA, wantB := make([]uint64, len(buf)), make([]uint64, len(buf))
		for round := 0; round < 4; round++ {
			a.Fill(buf)
			na, nb := WarmRecords(buf, gotA, gotB)
			wa, wb := b.Warm(len(buf), wantA, wantB)
			if !slices.Equal(gotA[:na], wantA[:wa]) || !slices.Equal(gotB[:nb], wantB[:wb]) {
				t.Fatalf("%s round %d: WarmRecords reported %d addrs %d branches, Warm %d and %d (or different values)", bench, round, na, nb, wa, wb)
			}
		}
	}
}
