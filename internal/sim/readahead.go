package sim

import (
	"fmt"
	"runtime/debug"

	"hbcache/internal/isa"
	"hbcache/internal/workload"
)

// A single run reads its instruction stream through a readAhead: one
// producer goroutine owns the workload.Source and synthesizes the
// stream into a small ring of reused chunks while the machine's own
// goroutine runs the timed core or the functional fast-forward on the
// chunks already filled. Synthesis (Generator.Next and Warm, about a
// third of a default run) thereby leaves the critical path whenever a
// second CPU is free.
//
// The machine drives the stream as a sequence of spans, and the
// producer serves them in order:
//
//   - a timed span fills chunks of isa.Inst records for the core's
//     front end with Source.Fill, running ahead until the machine cuts
//     it (its length depends on how far the core fetches, which only
//     the machine knows);
//   - a warm span of n instructions fills functional chunks (memory
//     addresses and packed branch outcomes) with Source.Warm.
//
// The stream itself is one fixed sequence — Fill and Warm both advance
// the source exactly as Next would — so where the producer happens to
// be when a span is cut changes nothing the machine sees: a
// fast-forward first drains any records already read ahead through
// workload.WarmRecords, which reports exactly what Warm would have,
// and only then asks for a warm span for the rest. Runs are therefore
// byte-identical to reading the source inline.

const (
	// readAheadRecs is a timed chunk's size in records: 512 32-byte
	// isa.Inst records, 16 KB, so a chunk still sits in the shared cache
	// when the consumer reads it. A prototype with 4096-record (128 KB)
	// chunks measured no faster: the cross-core transfer dominates.
	readAheadRecs = 512
	// readAheadWarm is a functional chunk's size in instructions; its
	// address and branch buffers take another 8 KB. Larger functional
	// chunks measured no faster, and every chunk is live for the whole
	// run, so they would only raise a service's peak heap.
	readAheadWarm = 512
	// readAheadDepth is how many filled chunks the producer may run
	// ahead of the one the machine is reading.
	readAheadDepth = 4
)

// raChunk is one reused unit of read-ahead: either timed records
// (insts[:n]) or a functional summary of n instructions.
type raChunk struct {
	n     int
	warm  bool
	na    int
	nb    int
	insts [readAheadRecs]isa.Inst
	// addrs[:na] and branches[:nb] of a warm chunk, as Source.Warm
	// reports them.
	addrs    [readAheadWarm]uint64
	branches [readAheadWarm]uint64
}

// raState is where the producer stands, as the consumer knows it.
type raState uint8

const (
	raIdle    raState = iota // no span requested; every chunk of the last one received
	raTimed                  // timed span open: the producer fills until cut
	raCutting                // cut sent; its remaining chunks and end marker are in flight
	raWarm                   // warm span requested; warmLeft instructions not yet received
)

// sourcePanic carries a panic raised on the producer goroutine into
// the run's own goroutine, where the caller's recovery can see it.
type sourcePanic struct {
	val   any
	stack []byte
}

func (p *sourcePanic) Error() string {
	return fmt.Sprintf("%v (raised reading the instruction stream ahead)\n%s", p.val, p.stack)
}

// testSourceHook, when set by a test, wraps every source a machine
// reads, so tests can inject a misbehaving source.
var testSourceHook func(workload.Source) workload.Source

// readAhead is the machine's view of its instruction stream. Fields
// above the channels belong to the consuming goroutine; the producer
// touches only src (after start), the channels, and fault.
type readAhead struct {
	src       workload.Source
	limit     uint64 // stream position where the source ends (sourceLimit)
	newSource func() (workload.Source, error)

	started bool
	state   raState
	cur     *raChunk // last chunk received; recycled when the next arrives
	i, n    int      // cur.insts[i:n] are read ahead but not yet consumed
	pos     uint64   // stream position just past everything received
	// warmLeft counts the open warm span's instructions not yet received.
	warmLeft uint64
	// base and basePos are the source's state and position when the
	// producer started: exportState replays forward from them.
	base    workload.GeneratorState
	basePos uint64
	// addrs and branches hold the functional view of records drained
	// by warm, and serve as exportState's replay buffers.
	addrs, branches [readAheadRecs]uint64

	reqs chan uint64   // span requests: 0 opens a timed span, n > 0 a warm span of n
	cut  chan struct{} // ends the open timed span
	free chan *raChunk // empty chunks, for the producer
	full chan *raChunk // filled chunks in stream order; nil ends a timed span
	quit chan struct{}
	done chan struct{}

	fault  *sourcePanic // set by the producer before it closes full
	raised bool
}

func newReadAhead(src workload.Source, newSource func() (workload.Source, error)) *readAhead {
	return &readAhead{src: src, limit: sourceLimit(src), newSource: newSource}
}

// start launches the producer at the first read, so a resume's
// ImportState lands on the source before anything else touches it.
func (r *readAhead) start() {
	if r.started {
		return
	}
	r.started = true
	r.basePos = r.src.Emitted()
	r.base = r.src.ExportState()
	r.pos = r.basePos
	r.reqs = make(chan uint64, 1)
	r.cut = make(chan struct{}, 1)
	const chunks = readAheadDepth + 1
	// Both queues hold every chunk at once, so neither side's send can
	// block; full also has room for a timed span's end marker.
	r.free = make(chan *raChunk, chunks)
	r.full = make(chan *raChunk, chunks+1)
	r.quit = make(chan struct{})
	r.done = make(chan struct{})
	for range chunks {
		r.free <- new(raChunk)
	}
	go r.produce()
}

// close stops the producer and waits for it. A panic the producer
// raised and no read has surfaced yet is re-raised here, in the run's
// own goroutine.
func (r *readAhead) close() {
	if !r.started {
		return
	}
	close(r.quit)
	<-r.done
	if r.fault != nil && !r.raised {
		r.raise()
	}
}

func (r *readAhead) raise() {
	r.raised = true
	panic(r.fault)
}

// produce is the producer goroutine: it serves span requests in order
// until quit.
func (r *readAhead) produce() {
	defer close(r.done)
	defer func() {
		if p := recover(); p != nil {
			r.fault = &sourcePanic{val: p, stack: debug.Stack()}
			close(r.full)
		}
	}()
	for {
		var n uint64
		select {
		case n = <-r.reqs:
		case <-r.quit:
			return
		}
		ok := false
		if n == 0 {
			ok = r.produceTimed()
		} else {
			ok = r.produceWarm(n)
		}
		if !ok {
			return
		}
	}
}

// produceTimed fills timed chunks until the consumer cuts the span,
// then sends the end marker. It stops filling at the source's end and
// waits for the cut there. It reports false on quit.
func (r *readAhead) produceTimed() bool {
	for {
		var c *raChunk
		if left := r.limit - r.src.Emitted(); left > 0 {
			select {
			case <-r.cut:
				r.full <- nil
				return true
			case c = <-r.free:
			case <-r.quit:
				return false
			}
			c.n, c.warm = int(min(left, readAheadRecs)), false
			r.src.Fill(c.insts[:c.n])
			r.full <- c
			continue
		}
		select {
		case <-r.cut:
			r.full <- nil
			return true
		case <-r.quit:
			return false
		}
	}
}

// produceWarm fills functional chunks covering exactly n instructions.
// It reports false on quit.
func (r *readAhead) produceWarm(n uint64) bool {
	for n > 0 {
		var c *raChunk
		select {
		case c = <-r.free:
		case <-r.quit:
			return false
		}
		c.n, c.warm = int(min(n, readAheadWarm)), true
		c.na, c.nb = r.src.Warm(c.n, c.addrs[:], c.branches[:])
		n -= uint64(c.n)
		r.full <- c
	}
	return true
}

// recv takes the next chunk (nil for a timed span's end marker) and
// makes it current, recycling the previous one.
func (r *readAhead) recv() *raChunk {
	c, ok := <-r.full
	if !ok {
		r.raise()
	}
	if c == nil {
		return nil
	}
	if r.cur != nil {
		r.free <- r.cur
	}
	r.cur = c
	r.pos += uint64(c.n)
	r.i, r.n = 0, 0
	if !c.warm {
		r.n = c.n
	}
	return c
}

// Next implements isa.Reader for the core's front end. A trace-backed
// stream ends exactly where its TraceReader would.
func (r *readAhead) Next() (isa.Inst, bool) {
	if r.i == r.n && !r.refill() {
		return isa.Inst{}, false
	}
	inst := r.cur.insts[r.i]
	r.i++
	return inst, true
}

// refill makes the next timed chunk current, opening a timed span when
// the producer is idle. It reports false at the end of the source.
func (r *readAhead) refill() bool {
	if r.pos >= r.limit {
		return false
	}
	r.start()
	for {
		if r.state == raIdle {
			r.reqs <- 0
			r.state = raTimed
		}
		if r.recv() != nil {
			return true
		}
		r.state = raIdle
	}
}

// warm returns the functional footprint of the next at most max
// instructions of the stream and how many instructions it covers
// (always at least one): records already read ahead first, then a warm
// span. The slices stay valid until the next read. A fast-forward
// consumes every span it opens, so a warm span is always drained
// before the next timed read.
func (r *readAhead) warm(max uint64) (addrs, branches []uint64, n uint64) {
	for {
		if r.i < r.n {
			k := min(r.n-r.i, int(min(max, readAheadRecs)))
			na, nb := workload.WarmRecords(r.cur.insts[r.i:r.i+k], r.addrs[:], r.branches[:])
			r.i += k
			return r.addrs[:na], r.branches[:nb], uint64(k)
		}
		r.start()
		switch r.state {
		case raTimed:
			r.cut <- struct{}{}
			r.state = raCutting
			continue
		case raCutting:
			if r.recv() == nil {
				r.state = raIdle
			}
			continue
		case raIdle:
			r.reqs <- max
			r.state, r.warmLeft = raWarm, max
		}
		c := r.recv()
		if r.warmLeft -= uint64(c.n); r.warmLeft == 0 {
			r.state = raIdle
		}
		return c.addrs[:c.na], c.branches[:c.nb], uint64(c.n)
	}
}

// fetched is the stream position the machine has consumed up to: the
// core's fetch position between fast-forwards.
func (r *readAhead) fetched() uint64 {
	return r.pos - uint64(r.n-r.i)
}

// exportState returns the source's state at the machine's position,
// not the producer's: a fresh source restored to the state the
// producer started from replays forward to fetched. Replay drains
// Warm, so a checkpoint costs at most the run's own fast-forward
// synthesis again.
func (r *readAhead) exportState() (workload.GeneratorState, error) {
	if !r.started {
		return r.src.ExportState(), nil
	}
	src, err := r.newSource()
	if err != nil {
		return workload.GeneratorState{}, err
	}
	if err := src.ImportState(r.base); err != nil {
		return workload.GeneratorState{}, err
	}
	for left := r.fetched() - r.basePos; left > 0; {
		k := min(left, readAheadRecs)
		src.Warm(int(k), r.addrs[:], r.branches[:])
		left -= k
	}
	return src.ExportState(), nil
}
