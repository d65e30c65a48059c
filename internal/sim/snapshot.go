package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hbcache/internal/check"
	"hbcache/internal/cpu"
	"hbcache/internal/fault"
	"hbcache/internal/mem"
	"hbcache/internal/snapshot"
	"hbcache/internal/workload"
)

// SnapshotKind discriminates machine-state snapshots inside the
// snapshot envelope. Bump the suffix when MachineState changes
// incompatibly; older files then fail with snapshot.ErrKind instead of
// deserializing into the wrong shape.
const SnapshotKind = "hbcache-sim-state-v1"

// MachineState is a complete simulation checkpoint: the config that
// produced it, the phase cursor, the measure-phase baselines, and the
// full mutable state of the core, the memory hierarchy, the workload
// generator, and (when hashing was on) the stream hasher. Resuming it
// reproduces the straight-through run bit-identically.
type MachineState struct {
	Config Config `json:"config"`

	// Phase and Remaining locate the run: Remaining instructions left in
	// Phase, always positive (restore rejects a snapshot with nothing
	// left to run in its phase).
	Phase     string `json:"phase"`
	Remaining uint64 `json:"remaining"`

	// Measure-phase baselines (hierarchy counters at ResetStats time);
	// meaningful only once Phase is "measure".
	PreLoads     uint64 `json:"pre_loads"`
	PreLoadMiss  uint64 `json:"pre_load_miss"`
	PreStoreMiss uint64 `json:"pre_store_miss"`
	PreLB        uint64 `json:"pre_lb"`

	CPU cpu.State               `json:"cpu"`
	Mem mem.SystemState         `json:"mem"`
	Gen workload.GeneratorState `json:"gen"`

	// Stream is present when the producing run hashed its retired
	// stream (RunOpts.Hash). A resume without it starts a fresh hash.
	Stream *check.StreamState `json:"stream,omitempty"`
}

// WriteSnapshot seals st into a checksummed snapshot file at path
// (atomically: temp file + rename).
func WriteSnapshot(path string, st *MachineState, faults *fault.Registry) error {
	return snapshot.Save(path, SnapshotKind, st, faults)
}

// ReadSnapshot loads and verifies the snapshot at path. Unusable files
// (corrupt, wrong version, wrong kind) are quarantined to *.corrupt by
// the snapshot layer; a missing file satisfies
// errors.Is(err, os.ErrNotExist).
func ReadSnapshot(path string, faults *fault.Registry) (*MachineState, error) {
	var st MachineState
	if err := snapshot.Load(path, SnapshotKind, &st, faults); err != nil {
		return nil, err
	}
	return &st, nil
}

// Restore builds a fresh simulation from the snapshot's embedded config
// and imports the recorded state into it, returning the assembled
// parts. This is the standalone form used by hbtrace to step a
// checkpoint cycle-by-cycle; RunContext resumes through the machine
// instead. The returned core has no budget or checker installed.
func (st *MachineState) Restore() (*cpu.CPU, *mem.System, workload.Source, error) {
	cfg := st.Config.WithDefaults()
	gen, err := cfg.newSource()
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := mem.NewSystem(cfg.Memory)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	core, err := cpu.New(cfg.CPU, gen, sys.L1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if err := gen.ImportState(st.Gen); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if err := sys.ImportState(st.Mem); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if err := core.ImportState(st.CPU); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return core, sys, gen, nil
}

// canonicalJSON is the config-identity encoding used to decide whether
// a snapshot belongs to this run's config.
func canonicalJSON(cfg Config) ([]byte, error) {
	return json.Marshal(cfg)
}

// restore imports a snapshot into the machine. The snapshot must match
// the machine's resolved config exactly and stop inside a timed phase
// with instructions left to run; older builds' end-of-prewarm files
// (phase warmup, nothing remaining) fail here. On success the machine's
// phase cursor, baselines, and rebased cycle budget are in place; on
// error the machine is unusable and the caller discards it.
func (m *machine) restore(st *MachineState) error {
	mine, err := canonicalJSON(m.cfg)
	if err != nil {
		return err
	}
	theirs, err := canonicalJSON(st.Config.WithDefaults())
	if err != nil {
		return err
	}
	if !bytes.Equal(mine, theirs) {
		return fmt.Errorf("snapshot recorded for a different config (benchmark %q)", st.Config.Benchmark)
	}
	switch st.Phase {
	case phasePrewarm, phaseWarmup, phaseMeasure:
	default:
		return fmt.Errorf("snapshot phase %q unknown", st.Phase)
	}
	if st.Remaining == 0 {
		return fmt.Errorf("snapshot has no instructions remaining in phase %q", st.Phase)
	}
	if err := m.gen.ImportState(st.Gen); err != nil {
		return err
	}
	if err := m.sys.ImportState(st.Mem); err != nil {
		return err
	}
	if err := m.core.ImportState(st.CPU); err != nil {
		return err
	}
	if m.stream != nil && st.Stream != nil {
		m.stream.Restore(*st.Stream)
	}
	if m.inv != nil {
		m.inv.Resume(st.CPU.HeadSeq)
	}
	m.phase = st.Phase
	m.remaining = st.Remaining
	m.preLoads = st.PreLoads
	m.preLoadMiss = st.PreLoadMiss
	m.preStoreMiss = st.PreStoreMiss
	m.preLB = st.PreLB
	// Rebase the cycle cap past the snapshot's clock: every attempt gets
	// the same allowance of forward progress, so a chain of
	// budget-truncated resumes always terminates.
	if m.opts.MaxCycles > 0 {
		m.effMax = st.CPU.Now + m.opts.MaxCycles
	}
	return nil
}

// exportState captures the machine at the given phase cursor. The
// stream state is the one at the core's fetch position, however far
// the read-ahead has run (batch lanes never checkpoint).
func (m *machine) exportState(phase string, remaining uint64) (*MachineState, error) {
	gen, err := m.ra.exportState()
	if err != nil {
		return nil, err
	}
	st := &MachineState{
		Config:       m.cfg,
		Phase:        phase,
		Remaining:    remaining,
		PreLoads:     m.preLoads,
		PreLoadMiss:  m.preLoadMiss,
		PreStoreMiss: m.preStoreMiss,
		PreLB:        m.preLB,
		CPU:          m.core.ExportState(),
		Mem:          m.sys.ExportState(),
		Gen:          gen,
	}
	if m.stream != nil {
		s := m.stream.State()
		st.Stream = &s
	}
	return st, nil
}

func (m *machine) saveSnapshot(path, phase string, remaining uint64) error {
	st, err := m.exportState(phase, remaining)
	if err != nil {
		return err
	}
	return WriteSnapshot(path, st, m.opts.Faults)
}
