package workload

import (
	"fmt"
	"math/bits"

	"hbcache/internal/isa"
)

// slot is one static instruction of a synthesized loop body.
type slot struct {
	op       isa.Op
	region   int // region index for memory ops; -1 otherwise
	chase    bool
	dataDep  bool // data-dependent branch
	loopBack bool // loop-closing branch (last slot)
	pc       uint64
}

// tmpl is a static inner loop: a body of slots replayed for a trip count.
type tmpl struct {
	kernel bool
	slots  []slot
}

// noTemplate is the empty body a generator starts in, ending at once.
var noTemplate tmpl

// templatesPerSpace is how many distinct static loops are synthesized
// for each of the user and kernel address spaces.
const templatesPerSpace = 6

// regRingSize is the window of recent destination registers used to
// build dependence edges; it matches the processor's 64-entry window so
// generated parallelism is actually harvestable.
const regRingSize = 64

// Generator synthesizes the dynamic instruction stream of one benchmark.
// It implements isa.Reader and never ends (callers run for a fixed
// instruction budget).
type Generator struct {
	model *Model
	rng   *Rand

	userRegions []*Region
	kernRegions []*Region

	userT []tmpl
	kernT []tmpl

	cur       *tmpl // noTemplate until the first instruction
	slotIdx   int
	itersLeft int

	n       uint64 // dynamic instruction count
	nRegMod uint64 // n % (isa.NumLogicalRegs-2), kept incrementally
	ring    [regRingSize]int16
	// chaseUser/chaseKern track, per region index, the register holding
	// the current chain pointer (isa.NoReg when no link exists yet).
	chaseUser   []int16
	chaseKern   []int16
	lastLoadDst int16

	// depKey keys the counter-based dependence-distance stream that
	// depDistance inverts against depSurv, survivalTable(DepMean).
	depKey  uint64
	depSurv [2 * regRingSize]uint64

	// Integer draw thresholds precomputed from the model (see
	// boolThreshold/geomThreshold): the per-instruction hot path
	// compares raw 53-bit draws against these instead of doing float
	// conversions. iterOne marks a degenerate trip-count mean (<= 1),
	// where every loop runs once without drawing.
	iterThresh      uint64
	iterOne         bool
	kernelFrac      float64
	dataTakenThresh uint64

	loads, stores, branches, kernel, fpops, mispredictable uint64
}

// New returns a generator for the named benchmark, deterministically
// seeded: the same (name, seed) pair always produces the same stream.
func New(name string, seed uint64) (*Generator, error) {
	m, err := ModelFor(name)
	if err != nil {
		return nil, err
	}
	return NewFromModel(m, seed), nil
}

// NewFromModel builds a generator from an explicit model, for tests and
// custom workloads.
func NewFromModel(m *Model, seed uint64) *Generator {
	g := &Generator{
		model:       m,
		rng:         NewRand(seed ^ hashName(m.Name)),
		cur:         &noTemplate,
		depKey:      mix64(seed ^ hashName(m.Name)),
		depSurv:     survivalTable(m.DepMean),
		lastLoadDst: isa.NoReg,
	}
	for i := range m.Regions {
		r := m.Regions[i] // copy: runtime cursors must not alias the spec
		g.userRegions = append(g.userRegions, &r)
	}
	for i := range m.KernelRegions {
		r := m.KernelRegions[i]
		g.kernRegions = append(g.kernRegions, &r)
	}
	layout(g.userRegions, g.kernRegions)
	g.chaseUser = make([]int16, len(g.userRegions))
	g.chaseKern = make([]int16, len(g.kernRegions))
	for i := range g.chaseUser {
		g.chaseUser[i] = isa.NoReg
	}
	for i := range g.chaseKern {
		g.chaseKern[i] = isa.NoReg
	}
	g.iterOne = m.MeanIterations <= 1
	if !g.iterOne {
		g.iterThresh = geomThreshold(m.MeanIterations)
	}
	g.kernelFrac = m.kernelFrac()
	g.dataTakenThresh = boolThreshold(m.DataBranchTakenProb)
	for i := 0; i < templatesPerSpace; i++ {
		g.userT = append(g.userT, g.buildTemplate(i, false))
		if m.kernelFrac() > 0 {
			g.kernT = append(g.kernT, g.buildTemplate(i, true))
		}
	}
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pickRegion chooses the region for a memory slot. Loads pick a Chase
// region with probability ChaseFrac (when one exists); everything else
// follows the weight mixture over non-chase regions.
func (g *Generator) pickRegion(kernel bool, wantChase bool) int {
	regions := g.userRegions
	if kernel {
		regions = g.kernRegions
	}
	var chase, other []*Region
	for _, r := range regions {
		if r.Pattern == Chase {
			chase = append(chase, r)
		} else {
			other = append(other, r)
		}
	}
	var pool []*Region
	if wantChase && len(chase) > 0 {
		pool = chase
	} else if len(other) > 0 {
		pool = other
	} else {
		pool = regions
	}
	rg := pick(g.rng, pool, totalWeight(pool))
	for i, r := range regions {
		if r == rg {
			return i
		}
	}
	return 0
}

// buildTemplate synthesizes one static inner loop whose operation mix
// matches the model's Table 2 fractions in expectation.
func (g *Generator) buildTemplate(idx int, kernel bool) tmpl {
	m := g.model
	bodyLen := 12 + g.rng.Intn(10) // 12..21 instructions
	nLoad := int(float64(bodyLen)*m.Paper.LoadPct/100 + 0.5)
	nStore := int(float64(bodyLen)*m.Paper.StorePct/100 + 0.5)
	nBranch := int(float64(bodyLen)*m.BranchFrac + 0.5)
	if nBranch < 1 {
		nBranch = 1
	}
	if nLoad+nStore+nBranch > bodyLen-1 {
		bodyLen = nLoad + nStore + nBranch + 2
	}

	// Lay out op kinds the way compiled loop bodies do: operand loads
	// cluster at the top of the body, computation follows, stores write
	// results near the end, and the loop-closing branch is last. The
	// clustering matters for timing fidelity — bursts of loads issued
	// back to back are what stress cache ports in a wide machine; a
	// uniform shuffle would understate port pressure. A small amount of
	// local shuffling keeps bodies from being perfectly rigid.
	kinds := make([]isa.Op, 0, bodyLen)
	for i := 0; i < nLoad; i++ {
		kinds = append(kinds, isa.Load)
	}
	nALU := bodyLen - 1 - nLoad - nStore - (nBranch - 1)
	for i := 0; i < nALU; i++ {
		kinds = append(kinds, g.pickALUOp())
	}
	for i := 0; i < nBranch-1; i++ {
		kinds = append(kinds, isa.Branch)
	}
	for i := 0; i < nStore; i++ {
		kinds = append(kinds, isa.Store)
	}
	// Local shuffle: swap each slot with a neighbour up to two away.
	for i := range kinds {
		j := i + g.rng.Intn(3) - 1
		if j >= 0 && j < len(kinds) {
			kinds[i], kinds[j] = kinds[j], kinds[i]
		}
	}
	kinds = append(kinds, isa.Branch) // loop-back

	base := uint64(0x0040_0000 + idx<<12)
	if kernel {
		base |= 0x8000_0000_0000
	}
	slots := make([]slot, len(kinds))
	for i, op := range kinds {
		s := slot{op: op, region: -1, pc: base + uint64(i)*4}
		switch op {
		case isa.Load:
			wantChase := g.rng.Bool(m.ChaseFrac)
			s.region = g.pickRegion(kernel, wantChase)
			regions := g.userRegions
			if kernel {
				regions = g.kernRegions
			}
			s.chase = regions[s.region].Pattern == Chase
		case isa.Store:
			s.region = g.pickRegion(kernel, false)
		case isa.Branch:
			if i == len(kinds)-1 {
				s.loopBack = true
			} else {
				s.dataDep = g.rng.Bool(m.DataBranchFrac)
			}
		}
		slots[i] = s
	}
	return tmpl{kernel: kernel, slots: slots}
}

func (g *Generator) pickALUOp() isa.Op {
	if g.rng.Bool(g.model.FPFrac) {
		switch {
		case g.rng.Bool(0.05):
			return isa.FPDiv
		case g.rng.Bool(0.45):
			return isa.FPMul
		default:
			return isa.FPAdd
		}
	}
	switch {
	case g.rng.Bool(0.005):
		return isa.IntDiv
	case g.rng.Bool(0.05):
		return isa.IntMul
	default:
		return isa.IntALU
	}
}

// nextTemplate selects the next inner loop to run, entering kernel
// mode whenever the kernel share of the instructions so far is below
// the model's kernel fraction, so the share tracks that target.
func (g *Generator) nextTemplate() {
	if len(g.kernT) > 0 && float64(g.kernel) < g.kernelFrac*float64(g.n) {
		g.cur = &g.kernT[g.rng.Intn(len(g.kernT))]
	} else {
		g.cur = &g.userT[g.rng.Intn(len(g.userT))]
	}
	g.slotIdx = 0
	iters := 1
	if !g.iterOne {
		for g.rng.Uint64()>>11 > g.iterThresh && iters < 1<<20 {
			iters++
		}
	}
	g.itersLeft = iters
}

// endBody runs when the current body is done: it starts the loop's
// next iteration, or a new template once the trip count is spent.
func (g *Generator) endBody() {
	if g.itersLeft > 1 {
		g.itersLeft--
		g.slotIdx = 0
	} else {
		g.nextTemplate()
	}
}

// countInst counts the instruction just emitted.
func (g *Generator) countInst() {
	if g.cur.kernel {
		g.kernel++
	}
	g.n++
	if g.nRegMod++; g.nRegMod == uint64(isa.NumLogicalRegs-2) {
		g.nRegMod = 0
	}
}

// dstReg allocates the next destination register, rotating through the
// logical space and recording it in the dependence ring. nRegMod is
// n % (NumLogicalRegs-2) maintained incrementally, since the modulus is
// not a power of two and this runs for most instructions.
func (g *Generator) dstReg() int16 {
	d := int16(2 + g.nRegMod)
	g.ring[g.n%regRingSize] = d
	return d
}

// srcReg picks the source register for operand (0 or 1), a geometric
// dependence distance back. The distance is keyed by instruction number,
// not drawn from the rng, so Warm can skip it and stay aligned with Next.
func (g *Generator) srcReg(operand uint64) int16 {
	k := g.depDistance(g.n<<1 | operand)
	if k > g.n || k > regRingSize {
		return isa.NoReg
	}
	return g.ring[(g.n-k)%regRingSize]
}

// depDistance returns the dependence distance at counter ctr. Its
// uniform draw u is output ctr of the SplitMix64 stream keyed by
// depKey, and the distance is 1 plus the number of depSurv entries
// above u, so P(distance > k) = q^k up to regRingSize; regRingSize+1
// stands for every distance past the ring. The count is a branch-free
// binary search over the decreasing table: the borrow of u - e is 1
// exactly when u < e.
func (g *Generator) depDistance(ctr uint64) uint64 {
	u := mix64(g.depKey + ctr*splitGamma)
	k := uint64(0)
	for step := uint64(regRingSize); step > 0; step >>= 1 {
		// The index stays below 2*regRingSize; the modulo only lets
		// the compiler drop the bounds check.
		_, b := bits.Sub64(u, g.depSurv[(k+step-1)%(2*regRingSize)], 0)
		k += b * step
	}
	return k + 1
}

// Next implements isa.Reader; the stream is unbounded so ok is always
// true.
func (g *Generator) Next() (isa.Inst, bool) {
	if g.slotIdx >= len(g.cur.slots) {
		g.endBody()
	}
	s := &g.cur.slots[g.slotIdx]
	g.slotIdx++

	inst := isa.Inst{PC: s.pc, Op: s.op, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Kernel: g.cur.kernel}
	regions := g.userRegions
	if g.cur.kernel {
		regions = g.kernRegions
	}
	switch s.op {
	case isa.Load:
		g.loads++
		rg := regions[s.region]
		inst.Addr = rg.next(g.rng)
		inst.Size = accessGranularity
		if s.chase {
			ptrs := g.chaseUser
			if g.cur.kernel {
				ptrs = g.chaseKern
			}
			inst.Src1 = ptrs[s.region]
			d := g.dstReg()
			inst.Dst = d
			ptrs[s.region] = d
		} else {
			inst.Src1 = g.srcReg(0)
			inst.Dst = g.dstReg()
		}
		g.lastLoadDst = inst.Dst
	case isa.Store:
		g.stores++
		rg := regions[s.region]
		inst.Addr = rg.next(g.rng)
		inst.Size = accessGranularity
		inst.Src1 = g.srcReg(0) // address register
		inst.Src2 = g.srcReg(1) // data register
	case isa.Branch:
		g.branches++
		if s.loopBack {
			inst.Taken = g.itersLeft > 1
			inst.Src1 = g.srcReg(0)
		} else if s.dataDep {
			g.mispredictable++
			inst.Taken = g.rng.Uint64()>>11 < g.dataTakenThresh
			inst.Src1 = g.lastLoadDst
		} else {
			inst.Taken = true // static control, perfectly learnable
			inst.Src1 = g.srcReg(0)
		}
	default:
		if s.op.IsFP() {
			g.fpops++
		}
		inst.Src1 = g.srcReg(0)
		inst.Src2 = g.srcReg(1)
		inst.Dst = g.dstReg()
	}
	g.countInst()
	return inst, true
}

// Warm drains n instructions from the stream, recording every memory
// reference address in addrs[:na] and every branch outcome in
// branches[:nb], packed pc<<1|taken. Both buffers must hold at least n
// entries. It advances the generator exactly as n calls of Next would —
// every rng draw, dependence-ring, chase-pointer and counter update
// happens identically, so interleaving Warm and Next is
// indistinguishable from calling Next throughout — but it skips
// assembling the isa.Inst records nobody reads during a functional
// cache prewarm, source registers included (see srcReg), and batching
// keeps the loop free of calls out.
// TestWarmMatchesNext pins the equivalence.
func (g *Generator) Warm(n int, addrs, branches []uint64) (na, nb int) {
	for i := 0; i < n; i++ {
		if g.slotIdx >= len(g.cur.slots) {
			g.endBody()
		}
		s := &g.cur.slots[g.slotIdx]
		g.slotIdx++

		regions := g.userRegions
		if g.cur.kernel {
			regions = g.kernRegions
		}
		switch s.op {
		case isa.Load:
			g.loads++
			addrs[na] = regions[s.region].next(g.rng)
			na++
			if s.chase {
				ptrs := g.chaseUser
				if g.cur.kernel {
					ptrs = g.chaseKern
				}
				d := g.dstReg()
				ptrs[s.region] = d
				g.lastLoadDst = d
			} else {
				g.lastLoadDst = g.dstReg()
			}
		case isa.Store:
			g.stores++
			addrs[na] = regions[s.region].next(g.rng)
			na++
		case isa.Branch:
			g.branches++
			var taken uint64
			if s.loopBack {
				if g.itersLeft > 1 {
					taken = 1
				}
			} else if s.dataDep {
				g.mispredictable++
				if g.rng.Uint64()>>11 < g.dataTakenThresh {
					taken = 1
				}
			} else {
				taken = 1
			}
			branches[nb] = s.pc<<1 | taken
			nb++
		default:
			if s.op.IsFP() {
				g.fpops++
			}
			g.dstReg()
		}
		g.countInst()
	}
	return na, nb
}

// Fill assembles len(dst) instructions into dst, advancing the
// generator exactly as len(dst) calls of Next would. It exists for the
// batch kernel's shared-stream ring buffer, which generates the stream
// once per (benchmark, seed) and lets every lane of a batch read the
// same records; TestFillMatchesNext pins the equivalence.
func (g *Generator) Fill(dst []isa.Inst) {
	for i := range dst {
		dst[i], _ = g.Next()
	}
}

// Emitted returns the number of instructions generated so far.
func (g *Generator) Emitted() uint64 { return g.n }

// MeasuredLoadPct returns the loads emitted as a percentage of all
// instructions, for Table 2 verification.
func (g *Generator) MeasuredLoadPct() float64 { return pct(g.loads, g.n) }

// MeasuredStorePct returns the store percentage of the stream.
func (g *Generator) MeasuredStorePct() float64 { return pct(g.stores, g.n) }

// MeasuredBranchPct returns the branch percentage of the stream.
func (g *Generator) MeasuredBranchPct() float64 { return pct(g.branches, g.n) }

// MeasuredKernelPct returns the percentage of instructions executed in
// kernel mode.
func (g *Generator) MeasuredKernelPct() float64 { return pct(g.kernel, g.n) }

// MeasuredFPPct returns the floating point operation percentage.
func (g *Generator) MeasuredFPPct() float64 { return pct(g.fpops, g.n) }

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Model returns the model the generator was built from.
func (g *Generator) Model() *Model { return g.model }

// RegionInfo describes one laid-out region of the generator's address
// space, for reporting and miss attribution. The JSON tags are part of
// the trace-file header format: recorded traces carry regions so replay
// sweeps the same address space.
type RegionInfo struct {
	Name   string `json:"name"`
	Base   uint64 `json:"base"`
	Bytes  uint64 `json:"bytes"`
	Kernel bool   `json:"kernel,omitempty"`
}

// Regions returns the laid-out address ranges of every region.
func (g *Generator) Regions() []RegionInfo {
	var out []RegionInfo
	for _, r := range g.userRegions {
		out = append(out, RegionInfo{Name: r.Name, Base: r.base, Bytes: r.Bytes})
	}
	for _, r := range g.kernRegions {
		out = append(out, RegionInfo{Name: "k:" + r.Name, Base: r.base, Bytes: r.Bytes, Kernel: true})
	}
	return out
}

var _ isa.Reader = (*Generator)(nil)

// MustNew is New panicking on unknown names, for tables of benchmarks.
func MustNew(name string, seed uint64) *Generator {
	g, err := New(name, seed)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return g
}
