package workload

import (
	"math"
	"testing"

	"hbcache/internal/isa"
)

// drainNext pulls n instructions via Next, collecting memory addresses
// and packed branch outcomes the way Warm reports them.
func drainNext(g *Generator, n int) (addrs, branches []uint64) {
	for i := 0; i < n; i++ {
		inst, _ := g.Next()
		switch inst.Op {
		case isa.Load, isa.Store:
			addrs = append(addrs, inst.Addr)
		case isa.Branch:
			t := uint64(0)
			if inst.Taken {
				t = 1
			}
			branches = append(branches, inst.PC<<1|t)
		}
	}
	return addrs, branches
}

// TestWarmMatchesNext pins the contract Warm's doc comment states: a
// Warm(n) call observes exactly the memory addresses and branch
// outcomes that n Next calls would produce, and leaves the generator in
// exactly the state those n Next calls would — so the subsequent stream
// is identical instruction for instruction.
func TestWarmMatchesNext(t *testing.T) {
	const warmN = 20000
	const tailN = 2000
	for _, name := range BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			ref := MustNew(name, 7)
			got := MustNew(name, 7)

			wantAddrs, wantBranches := drainNext(ref, warmN)

			addrs := make([]uint64, warmN)
			branches := make([]uint64, warmN)
			na, nb := got.Warm(warmN, addrs, branches)

			if na != len(wantAddrs) || nb != len(wantBranches) {
				t.Fatalf("Warm reported %d addrs, %d branches; Next produced %d, %d",
					na, nb, len(wantAddrs), len(wantBranches))
			}
			for i := range wantAddrs {
				if addrs[i] != wantAddrs[i] {
					t.Fatalf("addr %d: Warm %#x, Next %#x", i, addrs[i], wantAddrs[i])
				}
			}
			for i := range wantBranches {
				if branches[i] != wantBranches[i] {
					t.Fatalf("branch %d: Warm %#x, Next %#x", i, branches[i], wantBranches[i])
				}
			}
			if ref.Emitted() != got.Emitted() {
				t.Fatalf("emitted counts diverge: %d vs %d", got.Emitted(), ref.Emitted())
			}

			// The tail stream must be bit-identical: Warm left every rng
			// draw, ring slot, chase pointer and counter where Next would.
			for i := 0; i < tailN; i++ {
				want, _ := ref.Next()
				have, _ := got.Next()
				if have != want {
					t.Fatalf("post-warm inst %d diverges:\nwarm path: %+v\nnext path: %+v", i, have, want)
				}
			}
		})
	}
}

// TestWarmInterleavesWithNext checks Warm in chunks, mixed with Next
// calls, as sim.Run's chunked prewarm drain does.
func TestWarmInterleavesWithNext(t *testing.T) {
	ref := MustNew("gcc", 3)
	got := MustNew("gcc", 3)

	addrs := make([]uint64, 4096)
	branches := make([]uint64, 4096)
	for _, chunk := range []int{1, 63, 4096, 500, 2} {
		drainNext(ref, chunk)
		got.Warm(chunk, addrs, branches)
		for i := 0; i < 100; i++ {
			want, _ := ref.Next()
			have, _ := got.Next()
			if have != want {
				t.Fatalf("after chunk %d, inst %d diverges: %+v vs %+v", chunk, i, have, want)
			}
		}
	}
}

// TestDepDistanceDistribution holds the counter-keyed dependence draw
// to its target: for every model, 2^20 distances from a fixed key,
// binned over k = 1..64 plus the past-the-ring tail, against
// geometric(DepMean) truncated at the ring, by a chi-square test at
// p = 0.001. Tail bins are pooled until each expects at least five
// draws, the usual validity condition of the chi-square approximation.
func TestDepDistanceDistribution(t *testing.T) {
	const draws = 1 << 20
	for _, name := range BenchmarkNames() {
		t.Run(name, func(t *testing.T) {
			g := MustNew(name, 1)
			g.depKey = 0x5EED
			var hist [regRingSize + 1]float64
			for i := uint64(0); i < draws; i++ {
				k := g.depDistance(i)
				if k < 1 || k > regRingSize+1 {
					t.Fatalf("distance %d outside 1..%d", k, regRingSize+1)
				}
				hist[k-1]++
			}
			q := 1 - 1/g.Model().DepMean
			var want [regRingSize + 1]float64
			for k := 1; k <= regRingSize; k++ {
				want[k-1] = draws * math.Pow(q, float64(k-1)) * (1 - q)
			}
			want[regRingSize] = draws * math.Pow(q, regRingSize)

			var obs, exp []float64
			var o, e float64
			for i := range hist {
				o, e = o+hist[i], e+want[i]
				if e >= 5 {
					obs, exp = append(obs, o), append(exp, e)
					o, e = 0, 0
				}
			}
			obs[len(obs)-1] += o
			exp[len(exp)-1] += e
			var chi2 float64
			for i := range obs {
				chi2 += (obs[i] - exp[i]) * (obs[i] - exp[i]) / exp[i]
			}
			crit := chi2Critical001(len(obs) - 1)
			t.Logf("chi-square %.1f over %d bins (critical %.1f)", chi2, len(obs), crit)
			if chi2 > crit {
				t.Errorf("chi-square %.1f over %d bins exceeds the p=0.001 critical value %.1f", chi2, len(obs), crit)
			}
		})
	}
}

// chi2Critical001 is the upper 0.001 quantile of the chi-square
// distribution with dof degrees of freedom, by the Wilson–Hilferty
// cube-root normal approximation (within 1% for dof >= 10).
func chi2Critical001(dof int) float64 {
	const z = 3.090232 // upper 0.001 standard normal quantile
	v := 2 / (9 * float64(dof))
	c := 1 - v + z*math.Sqrt(v)
	return float64(dof) * c * c * c
}

// TestDepDistanceDegenerateMean pins that a dependence mean at or
// below one draws distance 1 at every counter: each source reads the
// previous instruction's destination.
func TestDepDistanceDegenerateMean(t *testing.T) {
	for _, mean := range []float64{1, 0.5, 0} {
		m := *MustNew("gcc", 1).Model()
		m.DepMean = mean
		g := NewFromModel(&m, 1)
		for i := uint64(0); i < 10000; i++ {
			if k := g.depDistance(i); k != 1 {
				t.Fatalf("DepMean %v: distance %d at counter %d, want 1", mean, k, i)
			}
		}
	}
}

// TestImportStateBeforeFirstInstruction round-trips the state of a
// generator that has emitted nothing yet (no template selected), and
// rejects such a state that claims loop iterations are left.
func TestImportStateBeforeFirstInstruction(t *testing.T) {
	st := MustNew("gcc", 4).ExportState()
	if st.CurIndex != -1 {
		t.Fatalf("fresh generator exported template index %d, want -1", st.CurIndex)
	}
	got := MustNew("gcc", 4)
	if err := got.ImportState(st); err != nil {
		t.Fatal(err)
	}
	ref := MustNew("gcc", 4)
	for i := 0; i < 1000; i++ {
		want, _ := ref.Next()
		if have, _ := got.Next(); have != want {
			t.Fatalf("inst %d after import diverges: %+v vs %+v", i, have, want)
		}
	}
	st.ItersLeft = 5
	if err := MustNew("gcc", 4).ImportState(st); err == nil {
		t.Error("accepted loop iterations without a template")
	}
}
