package workload

import "hbcache/internal/isa"

// Source is the instruction-stream seam the simulator runs on: the
// synthetic Generator and the recorded-trace TraceReader both implement
// it, so every consumer — the timing machine, the batch kernel's shared
// stream ring, functional prewarm, interval sampling, and snapshots —
// works identically whether the stream is synthesized live or replayed
// from a file.
//
// The contract mirrors the Generator's long-standing behavior:
//
//   - Next implements isa.Reader. A Generator's stream never ends; a
//     TraceReader's ends when the recording does, after which Next
//     returns (zero, false) forever and the core winds down cleanly.
//   - Warm advances the stream exactly as n calls of Next would, but
//     reports only what a functional prewarm consumes: every memory
//     reference address in addrs[:na] and every conditional-branch
//     outcome in branches[:nb], packed pc<<1|taken.
//   - Fill assembles len(dst) instructions, advancing the stream
//     exactly as len(dst) calls of Next would (the batch kernel's bulk
//     path). A Source that ends mid-Fill pads with zero Insts; callers
//     that care bound their reads with Len-style knowledge (see
//     TraceReader.Len).
//   - Emitted is the stream position: instructions produced so far.
//   - Regions describes the laid-out address space for the pre-run
//     region sweep and miss attribution.
//   - ExportState/ImportState round-trip the stream cursor through a
//     GeneratorState for checkpoints; restoring onto a freshly built
//     Source for the same underlying stream makes the next instruction
//     bit-identical to what the exporter would have produced.
type Source interface {
	isa.Reader
	Warm(n int, addrs, branches []uint64) (na, nb int)
	Fill(dst []isa.Inst)
	Emitted() uint64
	Regions() []RegionInfo
	ExportState() GeneratorState
	ImportState(GeneratorState) error
}

var (
	_ Source = (*Generator)(nil)
	_ Source = (*TraceReader)(nil)
)

// WarmRecords reports what Warm would for records already assembled:
// every memory reference address in addrs[:na] and every branch
// outcome in branches[:nb], packed pc<<1|taken. Both buffers must hold
// at least len(insts) entries. Draining records a Source has filled
// through WarmRecords warms a hierarchy and predictor exactly as
// calling Warm for them would have.
func WarmRecords(insts []isa.Inst, addrs, branches []uint64) (na, nb int) {
	for i := range insts {
		na, nb = warmRecord(&insts[i], addrs, branches, na, nb)
	}
	return na, nb
}

// warmRecord appends one record's functional footprint to the Warm
// buffers.
func warmRecord(inst *isa.Inst, addrs, branches []uint64, na, nb int) (int, int) {
	switch {
	case inst.Op.IsMem():
		addrs[na] = inst.Addr
		na++
	case inst.Op == isa.Branch:
		var taken uint64
		if inst.Taken {
			taken = 1
		}
		branches[nb] = inst.PC<<1 | taken
		nb++
	}
	return na, nb
}
