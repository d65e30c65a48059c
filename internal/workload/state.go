package workload

import "fmt"

// GeneratorState is the serializable mutable state of a Generator. The
// static structure — the model, region layout, and synthesized loop
// templates — is deterministically rebuilt from (benchmark, seed) by
// New, so a checkpoint records only what the dynamic stream has changed
// since construction: the RNG, the current-template cursor, the
// dependence ring, per-region chase pointers and stream cursors, and
// the mix counters. ImportState onto a freshly built generator for the
// same (benchmark, seed) makes the next instruction bit-identical to
// what the exported generator would have produced.
type GeneratorState struct {
	RNG uint64 `json:"rng"`

	// CurIndex identifies the template cur points at within userT or
	// kernT (selected by CurKernel); -1 means no template is active yet.
	CurIndex  int  `json:"cur_index"`
	CurKernel bool `json:"cur_kernel"`
	SlotIdx   int  `json:"slot_idx"`
	ItersLeft int  `json:"iters_left"`

	N           uint64  `json:"n"`
	NRegMod     uint64  `json:"n_reg_mod"`
	Ring        []int16 `json:"ring"`
	ChaseUser   []int16 `json:"chase_user"`
	ChaseKern   []int16 `json:"chase_kern"`
	LastLoadDst int16   `json:"last_load_dst"`

	// UserCursors/KernCursors are the per-region Stream cursors (the
	// only mutable per-region field).
	UserCursors []uint64 `json:"user_cursors"`
	KernCursors []uint64 `json:"kern_cursors"`

	Loads          uint64 `json:"loads"`
	Stores         uint64 `json:"stores"`
	Branches       uint64 `json:"branches"`
	Kernel         uint64 `json:"kernel"`
	FPOps          uint64 `json:"fpops"`
	Mispredictable uint64 `json:"mispredictable"`

	// TraceDigest is set only when the state was exported from a
	// TraceReader: it pins which trace N indexes, so a resume can
	// reject a cursor from a different recording. Generator states
	// leave it empty.
	TraceDigest string `json:"trace_digest,omitempty"`
}

// ExportState captures the generator's mutable state.
func (g *Generator) ExportState() GeneratorState {
	st := GeneratorState{
		RNG:            g.rng.s,
		CurIndex:       -1,
		SlotIdx:        g.slotIdx,
		ItersLeft:      g.itersLeft,
		N:              g.n,
		NRegMod:        g.nRegMod,
		Ring:           append([]int16(nil), g.ring[:]...),
		ChaseUser:      append([]int16(nil), g.chaseUser...),
		ChaseKern:      append([]int16(nil), g.chaseKern...),
		LastLoadDst:    g.lastLoadDst,
		Loads:          g.loads,
		Stores:         g.stores,
		Branches:       g.branches,
		Kernel:         g.kernel,
		FPOps:          g.fpops,
		Mispredictable: g.mispredictable,
	}
	for i := range g.userT {
		if g.cur == &g.userT[i] {
			st.CurIndex, st.CurKernel = i, false
		}
	}
	for i := range g.kernT {
		if g.cur == &g.kernT[i] {
			st.CurIndex, st.CurKernel = i, true
		}
	}
	for _, r := range g.userRegions {
		st.UserCursors = append(st.UserCursors, r.cursor)
	}
	for _, r := range g.kernRegions {
		st.KernCursors = append(st.KernCursors, r.cursor)
	}
	return st
}

// ImportState restores state exported from a generator with the same
// (benchmark, seed). The receiver must be freshly built (or at least
// structurally identical): templates, regions, and thresholds are not
// serialized, so a geometry mismatch means the snapshot belongs to a
// different workload and is rejected.
func (g *Generator) ImportState(st GeneratorState) error {
	switch {
	case len(st.Ring) != regRingSize:
		return fmt.Errorf("workload: snapshot ring has %d slots, want %d", len(st.Ring), regRingSize)
	case len(st.ChaseUser) != len(g.chaseUser):
		return fmt.Errorf("workload: snapshot has %d user chase pointers, generator has %d", len(st.ChaseUser), len(g.chaseUser))
	case len(st.ChaseKern) != len(g.chaseKern):
		return fmt.Errorf("workload: snapshot has %d kernel chase pointers, generator has %d", len(st.ChaseKern), len(g.chaseKern))
	case len(st.UserCursors) != len(g.userRegions):
		return fmt.Errorf("workload: snapshot has %d user region cursors, generator has %d regions", len(st.UserCursors), len(g.userRegions))
	case len(st.KernCursors) != len(g.kernRegions):
		return fmt.Errorf("workload: snapshot has %d kernel region cursors, generator has %d regions", len(st.KernCursors), len(g.kernRegions))
	}
	switch {
	case st.CurIndex < -1,
		!st.CurKernel && st.CurIndex >= len(g.userT),
		st.CurKernel && st.CurIndex >= len(g.kernT):
		return fmt.Errorf("workload: snapshot template index %d (kernel=%v) out of range", st.CurIndex, st.CurKernel)
	case st.CurIndex == -1 && st.ItersLeft > 1:
		return fmt.Errorf("workload: snapshot has %d loop iterations left but no template", st.ItersLeft)
	}
	if st.RNG == 0 {
		// xorshift's zero fixed point can never legitimately occur.
		return fmt.Errorf("workload: snapshot rng state is zero")
	}
	g.rng.s = st.RNG
	switch {
	case st.CurIndex == -1:
		g.cur = &noTemplate
	case st.CurKernel:
		g.cur = &g.kernT[st.CurIndex]
	default:
		g.cur = &g.userT[st.CurIndex]
	}
	g.slotIdx = st.SlotIdx
	g.itersLeft = st.ItersLeft
	g.n = st.N
	g.nRegMod = st.NRegMod
	copy(g.ring[:], st.Ring)
	copy(g.chaseUser, st.ChaseUser)
	copy(g.chaseKern, st.ChaseKern)
	g.lastLoadDst = st.LastLoadDst
	for i, r := range g.userRegions {
		r.cursor = st.UserCursors[i]
	}
	for i, r := range g.kernRegions {
		r.cursor = st.KernCursors[i]
	}
	g.loads = st.Loads
	g.stores = st.Stores
	g.branches = st.Branches
	g.kernel = st.Kernel
	g.fpops = st.FPOps
	g.mispredictable = st.Mispredictable
	return nil
}
