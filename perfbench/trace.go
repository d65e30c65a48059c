package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Req
// ties the spans of one config together (its runner key) and Where
// names the node that made the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs pay no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id for children.
func (t *tracer) add(name string, parent int, req, where string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Where: where,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name string, parent int, req, where string) int {
	return t.add(name, parent, req, where, time.Now(), time.Time{})
}

// end closes a span opened with begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// since records a span from start to now.
func (t *tracer) since(name string, parent int, req, where string, start time.Time) int {
	return t.add(name, parent, req, where, start, time.Now())
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// find returns the spans with the given name (and node, when where is
// non-empty).
func (t *tracer) find(name, where string) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Name == name && (where == "" || s.Where == where) {
			out = append(out, s)
		}
	}
	return out
}

// durByReq sums the durations of matching spans per request.
func (t *tracer) durByReq(name, where string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.find(name, where) {
		out[s.Req] += s.dur()
	}
	return out
}

// meanDur is the mean duration of matching spans, and their count.
func (t *tracer) meanDur(name, where string) (time.Duration, int) {
	spans := t.find(name, where)
	if len(spans) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, s := range spans {
		sum += s.dur()
	}
	return sum / time.Duration(len(spans)), len(spans)
}

// selfTime is each layer's busy time minus the part of it its child
// spans cover.
func selfTime(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval the children cover, with
// overlapping children counted once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end, parent.Start), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines under dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// simFunc is the runner's simulation seam (runner.Options.Sim).
type simFunc = func(ctx context.Context, cfg sim.Config) (sim.Result, error)

// directSim is the seam's default: sim.RunContext with no limits.
func directSim(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	return sim.RunContext(ctx, cfg, sim.RunOpts{})
}

// tracedSim wraps a simulation seam in a span named name. With a nil
// tracer it returns nil, which leaves the runner on its default path.
func tracedSim(t *tracer, name, where string, inner simFunc) simFunc {
	if t == nil {
		return nil
	}
	return func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		start := time.Now()
		res, err := inner(ctx, cfg)
		end := time.Now()
		key, kerr := runner.Key(cfg)
		if kerr != nil {
			key = fmt.Sprintf("unkeyed:%v", kerr)
		}
		t.add(name, 0, key, where, start, end)
		return res, err
	}
}

// tracedStore times Get and Put of a runner.Store.
type tracedStore struct {
	runner.Store
	t     *tracer
	where string
}

func traceStore(t *tracer, s runner.Store, where string) runner.Store {
	if t == nil {
		return s
	}
	return tracedStore{Store: s, t: t, where: where}
}

func (s tracedStore) Get(key string) (sim.Result, bool) {
	start := time.Now()
	res, ok := s.Store.Get(key)
	s.t.since("runner.store_get", 0, key, s.where, start)
	return res, ok
}

func (s tracedStore) Put(key string, cfg sim.Config, res sim.Result) error {
	start := time.Now()
	err := s.Store.Put(key, cfg, res)
	s.t.since("runner.store_put", 0, key, s.where, start)
	return err
}
