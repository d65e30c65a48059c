package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"hbcache/internal/isa"
)

// This file is the hbcache-trace-v1 binary format: a compact recorded
// instruction stream that replays through the simulator bit-identically
// to the generator that produced it (or to any external stream imported
// into the same record shape).
//
// File layout, all little-endian:
//
//	magic    8 bytes  "HBCTRACE"
//	version  1 byte   1
//	hlen     uvarint  header length in bytes
//	header   hlen     JSON TraceHeader (kind, benchmark, seed, count, regions)
//	plen     uvarint  record payload length in bytes
//	payload  plen     count packed records (see below)
//	trailer  32 bytes SHA-256 over every preceding byte
//
// One record:
//
//	flags    1 byte   op (bits 0-3) | taken<<4 | kernel<<5; bits 6-7 zero
//	dPC      varint   PC delta from the previous record (zigzag)
//	dst      1 byte   destination register + 1 (0 = isa.NoReg)
//	src1     1 byte   source 1 register + 1
//	src2     1 byte   source 2 register + 1
//	-- memory ops (load/store) only --
//	dAddr    varint   effective-address delta from the previous memory op
//	size     1 byte   access size in bytes
//
// Varint deltas exploit the stream's locality (loop bodies revisit
// nearby PCs; regions cluster addresses), packing a typical record into
// 6-9 bytes versus the 40 of an in-memory isa.Inst. The SHA-256 trailer
// follows the snapshot envelope's conventions — sealed over the exact
// bytes, verified before anything is parsed deeply, corrupt files
// quarantined to *.corrupt — and its hex doubles as the trace's content
// digest, the address used for caching and service upload dedup.
// OpenTrace performs a full validation decode before returning, so a
// Trace that opened successfully can never fail (or panic) mid-replay:
// adversarial bytes are rejected at the boundary, not discovered by the
// core.

// TraceKind is the header discriminator of this format generation. Bump
// the suffix when the record encoding changes incompatibly; older files
// then fail with ErrTraceKind instead of misdecoding.
const TraceKind = "hbcache-trace-v1"

// traceMagic opens every trace file.
const traceMagic = "HBCTRACE"

// traceVersion is the container layout version (magic + varint framing +
// SHA-256 trailer). The header kind versions the record encoding.
const traceVersion = 1

// maxTraceHeaderBytes bounds the JSON header so adversarial length
// prefixes cannot demand absurd allocations before the checksum check.
const maxTraceHeaderBytes = 1 << 20

// Sentinel errors classifying unusable trace bytes; they arrive wrapped
// with detail, so test with errors.Is.
var (
	// ErrTraceCorrupt marks truncated, overlong, undecodable, or
	// checksum-failing bytes.
	ErrTraceCorrupt = errors.New("workload: trace corrupt")
	// ErrTraceVersion marks a trace from an incompatible container
	// version.
	ErrTraceVersion = errors.New("workload: trace format version mismatch")
	// ErrTraceKind marks a valid container holding records this binary
	// does not decode.
	ErrTraceKind = errors.New("workload: trace kind mismatch")
)

// TraceHeader is the JSON metadata block of a trace file.
type TraceHeader struct {
	Kind      string `json:"kind"`
	Benchmark string `json:"benchmark"`
	Seed      uint64 `json:"seed"`
	// Count is the number of records in the payload.
	Count uint64 `json:"count"`
	// Regions is the recorded workload's laid-out address space,
	// carried so the pre-run region sweep behaves identically on
	// replay.
	Regions []RegionInfo `json:"regions"`
}

// quarantinedTraces counts trace files quarantined process-wide.
var quarantinedTraces atomic.Int64

// TracesQuarantined reports how many trace files this process has
// quarantined to *.corrupt.
func TracesQuarantined() int64 { return quarantinedTraces.Load() }

// TraceWriter encodes an instruction stream into hbcache-trace-v1
// bytes. Append instructions with Add, then seal with Bytes.
type TraceWriter struct {
	header   TraceHeader
	payload  []byte
	prevPC   uint64
	prevAddr uint64
}

// NewTraceWriter starts a trace labeled with the stream's provenance.
// Benchmark and seed are metadata (replay derives nothing from them);
// regions should be the producing Source's Regions() so replay sweeps
// the same address space.
func NewTraceWriter(benchmark string, seed uint64, regions []RegionInfo) *TraceWriter {
	return &TraceWriter{header: TraceHeader{
		Kind:      TraceKind,
		Benchmark: benchmark,
		Seed:      seed,
		Regions:   regions,
	}}
}

// Add appends one instruction. It fails only on records the format
// cannot carry (an out-of-range op or register), which no isa.Reader
// produces in practice.
func (w *TraceWriter) Add(inst isa.Inst) error {
	if int(inst.Op) >= isa.NumOps {
		return fmt.Errorf("workload: trace cannot encode op %d", inst.Op)
	}
	if err := checkReg(inst.Dst); err != nil {
		return err
	}
	if err := checkReg(inst.Src1); err != nil {
		return err
	}
	if err := checkReg(inst.Src2); err != nil {
		return err
	}
	flags := byte(inst.Op)
	if inst.Taken {
		flags |= 1 << 4
	}
	if inst.Kernel {
		flags |= 1 << 5
	}
	w.payload = append(w.payload, flags)
	w.payload = binary.AppendVarint(w.payload, int64(inst.PC-w.prevPC))
	w.prevPC = inst.PC
	w.payload = append(w.payload, byte(inst.Dst+1), byte(inst.Src1+1), byte(inst.Src2+1))
	if inst.Op.IsMem() {
		w.payload = binary.AppendVarint(w.payload, int64(inst.Addr-w.prevAddr))
		w.prevAddr = inst.Addr
		w.payload = append(w.payload, inst.Size)
	}
	w.header.Count++
	return nil
}

func checkReg(r int16) error {
	if r < isa.NoReg || r >= isa.NumLogicalRegs {
		return fmt.Errorf("workload: trace cannot encode register %d", r)
	}
	return nil
}

// Count reports how many records have been added.
func (w *TraceWriter) Count() uint64 { return w.header.Count }

// Bytes seals the trace: header, payload, and SHA-256 trailer.
func (w *TraceWriter) Bytes() ([]byte, error) {
	hdr, err := json.Marshal(w.header)
	if err != nil {
		return nil, fmt.Errorf("workload: encoding trace header: %w", err)
	}
	out := make([]byte, 0, len(traceMagic)+1+10+len(hdr)+10+len(w.payload)+sha256.Size)
	out = append(out, traceMagic...)
	out = append(out, traceVersion)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	out = binary.AppendUvarint(out, uint64(len(w.payload)))
	out = append(out, w.payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// RecordTrace synthesizes the named benchmark's stream for n
// instructions and encodes it — the self-generated fixture path: no
// external trace inputs are needed to exercise the whole replay stack.
func RecordTrace(benchmark string, seed uint64, n uint64) ([]byte, error) {
	gen, err := New(benchmark, seed)
	if err != nil {
		return nil, err
	}
	w := NewTraceWriter(benchmark, seed, gen.Regions())
	for i := uint64(0); i < n; i++ {
		inst, _ := gen.Next()
		if err := w.Add(inst); err != nil {
			return nil, err
		}
	}
	return w.Bytes()
}

// Trace is a verified, immutable in-memory trace. Open one with
// OpenTrace/OpenTraceFile; replay it through any number of independent
// TraceReaders.
type Trace struct {
	header  TraceHeader
	payload []byte
	digest  string
}

// OpenTrace verifies data as a complete trace file: container framing,
// checksum, header kind, and a full decode of every record. The
// returned Trace therefore replays without any possibility of error —
// truncated, corrupt, or adversarial bytes are rejected here with a
// classified error (ErrTraceCorrupt, ErrTraceVersion, ErrTraceKind) and
// never panic.
func OpenTrace(data []byte) (*Trace, error) {
	rest := data
	if len(rest) < len(traceMagic)+1 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the container preamble", ErrTraceCorrupt, len(data))
	}
	if string(rest[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrTraceCorrupt)
	}
	rest = rest[len(traceMagic):]
	if rest[0] != traceVersion {
		return nil, fmt.Errorf("%w: file version %d, this binary reads %d", ErrTraceVersion, rest[0], traceVersion)
	}
	rest = rest[1:]

	hlen, n := binary.Uvarint(rest)
	if n <= 0 || hlen > maxTraceHeaderBytes || hlen > uint64(len(rest[n:])) {
		return nil, fmt.Errorf("%w: bad header length", ErrTraceCorrupt)
	}
	rest = rest[n:]
	hdrBytes := rest[:hlen]
	rest = rest[hlen:]

	plen, n := binary.Uvarint(rest)
	if n <= 0 || plen > uint64(len(rest[n:])) {
		return nil, fmt.Errorf("%w: bad payload length", ErrTraceCorrupt)
	}
	rest = rest[n:]
	payload := rest[:plen]
	rest = rest[plen:]

	if len(rest) != sha256.Size {
		return nil, fmt.Errorf("%w: %d trailing bytes, want a %d-byte checksum", ErrTraceCorrupt, len(rest), sha256.Size)
	}
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	if !bytes.Equal(sum[:], rest) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTraceCorrupt)
	}

	var hdr TraceHeader
	dec := json.NewDecoder(bytes.NewReader(hdrBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTraceCorrupt, err)
	}
	if hdr.Kind != TraceKind {
		return nil, fmt.Errorf("%w: file holds %q, this binary reads %q", ErrTraceKind, hdr.Kind, TraceKind)
	}
	// Every record is at least 5 bytes, so a count the payload cannot
	// hold fails before the record walk.
	if hdr.Count > uint64(len(payload))/5 {
		return nil, fmt.Errorf("%w: header counts %d records but the payload holds at most %d", ErrTraceCorrupt, hdr.Count, len(payload)/5)
	}

	t := &Trace{header: hdr, payload: payload, digest: hex.EncodeToString(sum[:])}
	// Full validation decode: after this walk, replay cannot fail.
	var cur traceCursor
	for i := uint64(0); i < hdr.Count; i++ {
		if _, err := cur.next(payload); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if cur.off != len(payload) {
		return nil, fmt.Errorf("%w: %d payload bytes after the last record", ErrTraceCorrupt, len(payload)-cur.off)
	}
	return t, nil
}

// OpenTraceFile reads and verifies the trace at path. A missing file
// satisfies errors.Is(err, os.ErrNotExist); a file failing verification
// is quarantined — renamed to path+".corrupt", counted in
// TracesQuarantined — and the classified error is returned, mirroring
// the snapshot loader's contract.
func OpenTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := OpenTrace(data)
	if err != nil {
		quarantinedTraces.Add(1)
		if renameErr := os.Rename(path, path+".corrupt"); renameErr != nil {
			os.Remove(path)
		}
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return t, nil
}

// WriteTraceFile writes sealed trace bytes to path atomically (temp
// file + rename), so a killed process never leaves a torn trace where
// OpenTraceFile will find it.
func WriteTraceFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// TraceFileDigest fully verifies the trace at path and returns its
// content digest — what boundaries (CLIs, the service) use to resolve a
// path-only trace reference into a content-addressed one.
func TraceFileDigest(path string) (string, error) {
	t, err := OpenTraceFile(path)
	if err != nil {
		return "", err
	}
	return t.digest, nil
}

// Digest is the trace's content address: the hex SHA-256 the trailer
// sealed. Two files with equal digests carry byte-identical streams.
func (t *Trace) Digest() string { return t.digest }

// Header returns the trace's metadata block.
func (t *Trace) Header() TraceHeader { return t.header }

// Count is the number of recorded instructions.
func (t *Trace) Count() uint64 { return t.header.Count }

// NewReader returns a fresh replay cursor at the start of the trace.
// Readers are independent; a Trace may serve many concurrently.
func (t *Trace) NewReader() *TraceReader {
	return &TraceReader{t: t}
}

// traceCursor decodes records sequentially from a payload. next returns
// an error only on bytes OpenTrace has not validated; on a verified
// payload it cannot fail.
type traceCursor struct {
	off      int
	prevPC   uint64
	prevAddr uint64
}

func (c *traceCursor) next(payload []byte) (isa.Inst, error) {
	rest := payload[c.off:]
	if len(rest) < 1 {
		return isa.Inst{}, fmt.Errorf("%w: truncated record", ErrTraceCorrupt)
	}
	flags := rest[0]
	if flags&0xC0 != 0 {
		return isa.Inst{}, fmt.Errorf("%w: reserved flag bits set", ErrTraceCorrupt)
	}
	op := isa.Op(flags & 0x0F)
	if int(op) >= isa.NumOps {
		return isa.Inst{}, fmt.Errorf("%w: op %d out of range", ErrTraceCorrupt, op)
	}
	rest = rest[1:]
	dPC, n := binary.Varint(rest)
	if n <= 0 {
		return isa.Inst{}, fmt.Errorf("%w: bad pc delta", ErrTraceCorrupt)
	}
	rest = rest[n:]
	if len(rest) < 3 {
		return isa.Inst{}, fmt.Errorf("%w: truncated register operands", ErrTraceCorrupt)
	}
	dst, src1, src2 := rest[0], rest[1], rest[2]
	if dst > isa.NumLogicalRegs || src1 > isa.NumLogicalRegs || src2 > isa.NumLogicalRegs {
		return isa.Inst{}, fmt.Errorf("%w: register out of range", ErrTraceCorrupt)
	}
	rest = rest[3:]
	c.prevPC += uint64(dPC)
	inst := isa.Inst{
		PC:     c.prevPC,
		Op:     op,
		Dst:    int16(dst) - 1,
		Src1:   int16(src1) - 1,
		Src2:   int16(src2) - 1,
		Taken:  flags&(1<<4) != 0,
		Kernel: flags&(1<<5) != 0,
	}
	if op.IsMem() {
		dAddr, n := binary.Varint(rest)
		if n <= 0 {
			return isa.Inst{}, fmt.Errorf("%w: bad address delta", ErrTraceCorrupt)
		}
		rest = rest[n:]
		if len(rest) < 1 {
			return isa.Inst{}, fmt.Errorf("%w: truncated access size", ErrTraceCorrupt)
		}
		c.prevAddr += uint64(dAddr)
		inst.Addr = c.prevAddr
		inst.Size = rest[0]
		rest = rest[1:]
	}
	c.off = len(payload) - len(rest)
	return inst, nil
}

// TraceReader replays a verified Trace as a workload Source. It ends:
// once Count records have been produced, Next returns (zero, false)
// forever, the core's front end sees end-of-trace, and the run winds
// down cleanly — so a trace must be recorded with enough slack beyond
// the windows it will drive (see the sim package's recorder).
type TraceReader struct {
	t   *Trace
	cur traceCursor
	n   uint64
}

// Next implements isa.Reader.
func (r *TraceReader) Next() (isa.Inst, bool) {
	if r.n >= r.t.header.Count {
		return isa.Inst{}, false
	}
	inst, err := r.cur.next(r.t.payload)
	if err != nil {
		// Unreachable: OpenTrace validated every record.
		panic(fmt.Sprintf("workload: verified trace failed to decode: %v", err))
	}
	r.n++
	return inst, true
}

// Warm implements Source: it advances the cursor exactly as n calls of
// Next would, reporting memory addresses and packed branch outcomes. A
// trace that ends inside the window reports what remained.
func (r *TraceReader) Warm(n int, addrs, branches []uint64) (na, nb int) {
	for i := 0; i < n; i++ {
		inst, ok := r.Next()
		if !ok {
			break
		}
		na, nb = warmRecord(&inst, addrs, branches, na, nb)
	}
	return na, nb
}

// Fill implements Source, zero-padding past the end of the trace (the
// batch kernel bounds its reads with Len).
func (r *TraceReader) Fill(dst []isa.Inst) {
	for i := range dst {
		dst[i], _ = r.Next()
	}
}

// Emitted reports the records consumed so far.
func (r *TraceReader) Emitted() uint64 { return r.n }

// Len reports the total number of records in the underlying trace.
func (r *TraceReader) Len() uint64 { return r.t.header.Count }

// Digest returns the underlying trace's content digest.
func (r *TraceReader) Digest() string { return r.t.digest }

// Header returns the underlying trace's metadata block.
func (r *TraceReader) Header() TraceHeader { return r.t.header }

// Regions implements Source from the recorded header.
func (r *TraceReader) Regions() []RegionInfo { return r.t.header.Regions }

// ExportState implements Source. A trace cursor's whole mutable state
// is its position; the digest pins which trace the position indexes.
func (r *TraceReader) ExportState() GeneratorState {
	return GeneratorState{N: r.n, TraceDigest: r.t.digest}
}

// ImportState implements Source: it verifies the state belongs to this
// trace and re-seeks by decoding from the start (positions are byte
// offsets only the walk can reconstruct; an O(n) seek is noise next to
// the simulation resuming behind it).
func (r *TraceReader) ImportState(st GeneratorState) error {
	if st.TraceDigest == "" {
		return fmt.Errorf("workload: snapshot was not recorded from a trace (no trace digest)")
	}
	if st.TraceDigest != r.t.digest {
		return fmt.Errorf("workload: snapshot belongs to trace %.12s…, this trace is %.12s…", st.TraceDigest, r.t.digest)
	}
	if st.N > r.t.header.Count {
		return fmt.Errorf("workload: snapshot position %d beyond the trace's %d records", st.N, r.t.header.Count)
	}
	r.cur = traceCursor{}
	r.n = 0
	for r.n < st.N {
		if _, ok := r.Next(); !ok {
			return fmt.Errorf("workload: trace ended at %d seeking to %d", r.n, st.N)
		}
	}
	return nil
}
