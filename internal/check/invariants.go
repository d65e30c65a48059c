package check

import (
	"fmt"
	"sync/atomic"

	"hbcache/internal/cpu"
	"hbcache/internal/isa"
	"hbcache/internal/mem"
)

// Recorder is a cpu.Checker that captures the out-of-order core's
// retired instruction stream and replays it, in retirement (= program)
// order, through the same functional hierarchy the golden model uses.
// Because retirement order is program order, its Totals must match a
// golden run of the same length bit for bit; any disagreement means
// the pipeline retired the wrong instructions, retired them out of
// order, or dropped or duplicated one.
type Recorder struct {
	t       *tally
	lastSeq uint64
	err     error
}

// NewRecorder builds a recorder over a functional replica of cfg.
func NewRecorder(cfg mem.SystemConfig) (*Recorder, error) {
	t, err := newTally(cfg)
	if err != nil {
		return nil, err
	}
	return &Recorder{t: t}, nil
}

// Retire implements cpu.Checker. Sequence numbers start at 1 and must
// arrive strictly consecutively.
func (r *Recorder) Retire(now mem.Cycle, inst isa.Inst, seq uint64) {
	if r.err == nil && seq != r.lastSeq+1 {
		r.err = fmt.Errorf("check: cycle %d retired seq %d after seq %d; retirement must be consecutive", now, seq, r.lastSeq)
	}
	r.lastSeq = seq
	r.t.record(inst)
}

// Forward implements cpu.Checker (no-op for the recorder).
func (r *Recorder) Forward(now mem.Cycle, loadSeq, loadAddr, storeSeq, storeAddr uint64) {}

// EndCycle implements cpu.Checker (no-op for the recorder).
func (r *Recorder) EndCycle(now mem.Cycle) {}

// Totals returns the replayed stream's event counts.
func (r *Recorder) Totals() Totals { return r.t.totals }

// Err returns the first retirement-order violation observed, if any.
func (r *Recorder) Err() error { return r.err }

// Invariants is a cpu.Checker that validates machine state every
// cycle: retirement order, store-to-load forwarding legality, and the
// structural invariants of the core (CheckInvariants) and the memory
// hierarchy (System.CheckInvariants). The first violation is latched
// and, when a stop flag is provided, the run is aborted so a broken
// machine does not keep simulating.
type Invariants struct {
	core *cpu.CPU
	sys  *mem.System  // may be nil (core-only traces in tests)
	stop *atomic.Bool // may be nil; raised on the first violation

	lastSeq uint64
	cycles  uint64
	err     error
}

// NewInvariants builds a checker for core (required) and sys (may be
// nil). If stop is non-nil it is set on the first violation, which
// aborts a core running under SetBudget.
func NewInvariants(core *cpu.CPU, sys *mem.System, stop *atomic.Bool) *Invariants {
	return &Invariants{core: core, sys: sys, stop: stop}
}

func (v *Invariants) fail(now mem.Cycle, err error) {
	if v.err != nil {
		return
	}
	v.err = fmt.Errorf("check: cycle %d: %w", now, err)
	if v.stop != nil {
		v.stop.Store(true)
	}
}

// Retire implements cpu.Checker: sequence numbers must arrive
// strictly consecutively from 1.
func (v *Invariants) Retire(now mem.Cycle, inst isa.Inst, seq uint64) {
	if seq != v.lastSeq+1 {
		v.fail(now, fmt.Errorf("retired seq %d after seq %d; ROB must retire in order", seq, v.lastSeq))
	}
	v.lastSeq = seq
}

// Forward implements cpu.Checker: a load may only forward from an
// older store (storeSeq 0 marks the post-retirement store buffer,
// which only holds retired — hence older — stores) and only when the
// two addresses fall in the same doubleword.
func (v *Invariants) Forward(now mem.Cycle, loadSeq, loadAddr, storeSeq, storeAddr uint64) {
	if storeSeq != 0 && storeSeq >= loadSeq {
		v.fail(now, fmt.Errorf("load seq %d forwarded from younger store seq %d", loadSeq, storeSeq))
		return
	}
	if storeAddr>>3 != loadAddr>>3 {
		v.fail(now, fmt.Errorf("load seq %d at %#x forwarded from store at %#x (different doubleword)", loadSeq, loadAddr, storeAddr))
	}
}

// EndCycle implements cpu.Checker: after every cycle the core's and
// the hierarchy's structural invariants must hold.
func (v *Invariants) EndCycle(now mem.Cycle) {
	v.cycles++
	if v.err != nil {
		return
	}
	if err := v.core.CheckInvariants(); err != nil {
		v.fail(now, err)
		return
	}
	if v.sys != nil {
		if err := v.sys.CheckInvariants(); err != nil {
			v.fail(now, err)
		}
	}
}

// Resume continues the retirement-order check on a core restored from
// a checkpoint: headSeq is the restored window's oldest sequence
// number, so the next retirement must carry it.
func (v *Invariants) Resume(headSeq uint64) { v.lastSeq = headSeq - 1 }

// Err returns the first violation observed, if any.
func (v *Invariants) Err() error { return v.err }

// Cycles returns how many cycles the checker has inspected.
func (v *Invariants) Cycles() uint64 { return v.cycles }

// multi fans one checker callback out to several.
type multi []cpu.Checker

// Multi combines checkers into one cpu.Checker; nils are dropped.
func Multi(checkers ...cpu.Checker) cpu.Checker {
	var m multi
	for _, c := range checkers {
		if c != nil {
			m = append(m, c)
		}
	}
	if len(m) == 1 {
		return m[0]
	}
	return m
}

func (m multi) Retire(now mem.Cycle, inst isa.Inst, seq uint64) {
	for _, c := range m {
		c.Retire(now, inst, seq)
	}
}

func (m multi) Forward(now mem.Cycle, loadSeq, loadAddr, storeSeq, storeAddr uint64) {
	for _, c := range m {
		c.Forward(now, loadSeq, loadAddr, storeSeq, storeAddr)
	}
}

func (m multi) EndCycle(now mem.Cycle) {
	for _, c := range m {
		c.EndCycle(now)
	}
}
