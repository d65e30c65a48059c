package workload

import (
	"math"
	"testing"

	"hbcache/internal/isa"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
	if NewRand(0).Uint64() == 0 {
		t.Error("zero seed must be remapped")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	var sum float64
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[r.Intn(3)]++
	}
	for v := range counts {
		if v < 0 || v > 2 {
			t.Errorf("Intn(3) produced %d", v)
		}
	}
}

func TestBenchmarkRoster(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 9 {
		t.Fatalf("have %d benchmarks, want 9", len(names))
	}
	models := Models()
	groups := map[Group]int{}
	for _, n := range names {
		m, ok := models[n]
		if !ok {
			t.Fatalf("missing model %q", n)
		}
		groups[m.Group]++
		busy := m.Paper.KernelPct + m.Paper.UserPct + m.Paper.IdlePct
		if math.Abs(busy-100) > 0.2 {
			t.Errorf("%s: kernel+user+idle = %v, want 100", n, busy)
		}
		if len(m.Regions) == 0 {
			t.Errorf("%s: no regions", n)
		}
	}
	// Three benchmarks per group, per Table 1.
	if groups[SPECint] != 3 || groups[SPECfp] != 3 || groups[Multiprogramming] != 3 {
		t.Errorf("group sizes = %v, want 3/3/3", groups)
	}
	for _, n := range RepresentativeNames() {
		if _, ok := models[n]; !ok {
			t.Errorf("representative %q missing", n)
		}
	}
	if _, err := ModelFor("nonesuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestTable2Fractions(t *testing.T) {
	// The generated stream must match the paper's load/store/kernel
	// percentages within a small tolerance.
	for _, name := range BenchmarkNames() {
		g := MustNew(name, 1)
		for i := 0; i < 200000; i++ {
			g.Next()
		}
		m := g.Model()
		if d := math.Abs(g.MeasuredLoadPct() - m.Paper.LoadPct); d > 3.0 {
			t.Errorf("%s: load%% = %.1f, paper %.1f (|d|=%.1f)", name, g.MeasuredLoadPct(), m.Paper.LoadPct, d)
		}
		if d := math.Abs(g.MeasuredStorePct() - m.Paper.StorePct); d > 3.0 {
			t.Errorf("%s: store%% = %.1f, paper %.1f", name, g.MeasuredStorePct(), m.Paper.StorePct)
		}
		wantKernel := 100 * m.Paper.KernelPct / (m.Paper.KernelPct + m.Paper.UserPct)
		if d := math.Abs(g.MeasuredKernelPct() - wantKernel); d > 5.0 {
			t.Errorf("%s: kernel%% = %.1f, want ~%.1f", name, g.MeasuredKernelPct(), wantKernel)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := MustNew("gcc", 5)
	b := MustNew("gcc", 5)
	for i := 0; i < 5000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia != ib {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, ia, ib)
		}
	}
	c := MustNew("gcc", 6)
	diverged := false
	a = MustNew("gcc", 5)
	for i := 0; i < 5000; i++ {
		ia, _ := a.Next()
		ic, _ := c.Next()
		if ia != ic {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds should produce different streams")
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	g := MustNew("tomcatv", 3)
	inRange := func(addr uint64, regions []*Region) bool {
		for _, rg := range regions {
			if addr >= rg.base && addr < rg.base+rg.Bytes {
				return true
			}
		}
		return false
	}
	for i := 0; i < 50000; i++ {
		inst, _ := g.Next()
		if !inst.Op.IsMem() {
			continue
		}
		regions := g.userRegions
		if inst.Kernel {
			regions = g.kernRegions
		}
		if !inRange(inst.Addr, regions) {
			t.Fatalf("address %#x outside its %v regions", inst.Addr, inst.Kernel)
		}
	}
}

func TestKernelUserAddressSpacesDisjoint(t *testing.T) {
	g := MustNew("database", 3)
	var kernelMin uint64 = math.MaxUint64
	var userMax uint64
	for i := 0; i < 100000; i++ {
		inst, _ := g.Next()
		if !inst.Op.IsMem() {
			continue
		}
		if inst.Kernel {
			if inst.Addr < kernelMin {
				kernelMin = inst.Addr
			}
		} else if inst.Addr > userMax {
			userMax = inst.Addr
		}
	}
	if kernelMin <= userMax {
		t.Errorf("kernel (min %#x) and user (max %#x) spaces overlap", kernelMin, userMax)
	}
}

func TestGroupILPCharacter(t *testing.T) {
	// Floating point codes must have longer dependence distances and
	// fewer branches than integer codes.
	measure := func(name string) (branchPct float64, fpPct float64) {
		g := MustNew(name, 9)
		for i := 0; i < 100000; i++ {
			g.Next()
		}
		return g.MeasuredBranchPct(), g.MeasuredFPPct()
	}
	gccBr, gccFP := measure("gcc")
	tomBr, tomFP := measure("tomcatv")
	if tomBr >= gccBr {
		t.Errorf("tomcatv branch%% (%.1f) must be below gcc (%.1f)", tomBr, gccBr)
	}
	if tomFP <= gccFP {
		t.Errorf("tomcatv FP%% (%.1f) must exceed gcc (%.1f)", tomFP, gccFP)
	}
	mg, _ := ModelFor("gcc")
	mt, _ := ModelFor("tomcatv")
	if mt.DepMean <= mg.DepMean {
		t.Error("FP dependence distance must exceed integer")
	}
}

func TestChaseLoadsAreSerialized(t *testing.T) {
	g := MustNew("li", 11)
	// li is chase heavy: within a window we must find loads whose
	// source register is the destination of an earlier load.
	lastDst := map[int16]bool{}
	serialized := 0
	loads := 0
	for i := 0; i < 50000; i++ {
		inst, _ := g.Next()
		if inst.Op != isa.Load {
			continue
		}
		loads++
		if inst.Src1 != isa.NoReg && lastDst[inst.Src1] {
			serialized++
		}
		if inst.Dst != isa.NoReg {
			lastDst[inst.Dst] = true
		}
	}
	if loads == 0 || float64(serialized)/float64(loads) < 0.10 {
		t.Errorf("li: %d/%d loads load-dependent, want >= 10%%", serialized, loads)
	}
}

func TestBranchOutcomesLearnable(t *testing.T) {
	// Loop-back branches at a given PC must be mostly taken (loops run
	// many iterations and mispredict only on exit).
	g := MustNew("tomcatv", 13)
	taken, total := 0, 0
	for i := 0; i < 100000; i++ {
		inst, _ := g.Next()
		if inst.Op == isa.Branch {
			total++
			if inst.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no branches generated")
	}
	if ratio := float64(taken) / float64(total); ratio < 0.6 {
		t.Errorf("taken ratio = %.2f, want >= 0.6 for loopy FP code", ratio)
	}
}

func TestStreamPatternSequential(t *testing.T) {
	rg := &Region{Bytes: 1024, Pattern: Stream, Stride: 8, base: 0x1000}
	r := NewRand(1)
	prev := rg.next(r)
	for i := 1; i < 200; i++ {
		cur := rg.next(r)
		if cur != prev+8 && cur != rg.base { // wraps at region end
			t.Fatalf("stream not sequential: %#x after %#x", cur, prev)
		}
		prev = cur
	}
}

func TestHotPatternSkewed(t *testing.T) {
	rg := &Region{Bytes: 64 << 10, Pattern: Hot, base: 0}
	r := NewRand(2)
	inFront := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if rg.next(r) < rg.Bytes/8 {
			inFront++
		}
	}
	// The hottest eighth must draw far more than its uniform share.
	if frac := float64(inFront) / n; frac < 0.3 {
		t.Errorf("hot pattern front-eighth share = %.2f, want >= 0.3", frac)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{Stream: "stream", Hot: "hot", Uniform: "uniform", Chase: "chase"} {
		if p.String() != want {
			t.Errorf("%d -> %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestGroupString(t *testing.T) {
	if SPECint.String() != "SPECint" || SPECfp.String() != "SPECfp" || Multiprogramming.String() != "multiprogramming" {
		t.Error("group names wrong")
	}
}

func TestWorkingSetSizesMatchGroups(t *testing.T) {
	// The paper: integer benchmarks have the smallest working sets,
	// multiprogramming the largest of the integer-style codes. Compare
	// total region bytes.
	total := func(name string) uint64 {
		m, _ := ModelFor(name)
		var t uint64
		for _, r := range m.Regions {
			t += r.Bytes
		}
		return t
	}
	if total("gcc") >= total("database") {
		t.Error("gcc working set must be smaller than database")
	}
	if total("li") >= total("vcs") {
		t.Error("li working set must be smaller than vcs")
	}
}
