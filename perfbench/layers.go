package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// chunk is the instruction chunk sim.Run uses for fast-forward and for
// the timed phases.
const chunk = 4096

// replayStats accumulates the counts behind the component replay's
// per-instruction and per-cycle metrics.
type replayStats struct {
	configs                       int
	warmInsts, touches, nextInsts uint64
	cycles, retired               uint64 // warm-up and measure, for cpu.*
	measured                      uint64 // measure window retired, for mem.*
	portRetries, bankConflicts    uint64
	mshrStalls, l1Misses          uint64
	simInsts                      uint64 // prewarm + warm-up + measure
}

// replay drives the exported parts of one simulation in the order
// sim.Run does, timing each, and returns the measure window's simulated
// cycles and retired count.
func replay(cfg sim.Config, t *tracer, st *replayStats) (cycles, retired uint64, err error) {
	cfg = cfg.WithDefaults()
	key, err := runner.Key(cfg)
	if err != nil {
		return 0, 0, err
	}
	root := t.begin("sim.replay", 0, key, "replay")
	defer t.end(root)

	// 1. Construction, then the region sweep.
	sweep := t.begin("sim.region_sweep", root, key, "replay")
	gen, err := workload.New(cfg.Benchmark, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	sys, err := mem.NewSystem(cfg.Memory)
	if err != nil {
		return 0, 0, err
	}
	core, err := cpu.New(cfg.CPU, gen, sys.L1)
	if err != nil {
		return 0, 0, err
	}
	for _, region := range gen.Regions() {
		start := time.Now()
		for off := uint64(0); off < region.Bytes; off += 32 {
			sys.WarmTouch(region.Base + off)
		}
		st.touches += (region.Bytes + 31) / 32
		t.since("mem.warm_touch", sweep, key, "replay", start)
	}
	t.end(sweep)

	// 2. Fast-forward: Warm, WarmTouch and Predictor.Warm per chunk.
	ff := t.begin("sim.fast_forward", root, key, "replay")
	pred := core.Predictor()
	var addrs, branches [chunk]uint64
	for left := cfg.PrewarmInsts; left > 0; {
		n := min(uint64(chunk), left)
		left -= n
		t0 := time.Now()
		na, nb := gen.Warm(int(n), addrs[:], branches[:])
		t1 := time.Now()
		for _, a := range addrs[:na] {
			sys.WarmTouch(a)
		}
		t2 := time.Now()
		for _, b := range branches[:nb] {
			pred.Warm(b>>1, b&1 == 1)
		}
		t.add("workload.warm", ff, key, "replay", t0, t1)
		t.add("mem.warm_touch", ff, key, "replay", t1, t2)
		t.since("cpu.predictor_warm", ff, key, "replay", t2)
		st.warmInsts += n
		st.touches += uint64(na)
	}
	t.end(ff)

	// 3 and 4. Warm-up, ResetStats, measure, in CPU.Run chunks.
	timed := func(name string, insts uint64) {
		id := t.begin(name, root, key, "replay")
		defer t.end(id)
		for remaining := insts; remaining > 0 && !core.Done(); {
			before, now := core.Stats().Retired, core.Now()
			start := time.Now()
			core.Run(min(uint64(chunk), remaining))
			t.since("cpu.run", id, key, "replay", start)
			done := core.Stats().Retired - before
			st.cycles += uint64(core.Now() - now)
			st.retired += done
			remaining -= min(done, remaining)
		}
	}
	timed("sim.warmup", cfg.WarmupInsts)
	l1 := sys.L1
	retries, conflicts, stalls := l1.PortRetries(), l1.BankConflicts(), l1.MSHRStalls()
	misses := l1.LoadMisses() + l1.StoreMisses()
	core.ResetStats()
	timed("sim.measure", cfg.MeasureInsts)
	s := core.Stats()
	st.measured += s.Retired
	st.portRetries += l1.PortRetries() - retries
	st.bankConflicts += l1.BankConflicts() - conflicts
	st.mshrStalls += l1.MSHRStalls() - stalls
	st.l1Misses += l1.LoadMisses() + l1.StoreMisses() - misses
	st.simInsts += cfg.PrewarmInsts + cfg.WarmupInsts + cfg.MeasureInsts
	st.configs++

	// Generator.Next over as many instructions as Warm produced.
	next, err := workload.New(cfg.Benchmark, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := uint64(0); i < cfg.PrewarmInsts; i++ {
		next.Next()
	}
	t.since("workload.next", 0, key, "replay", start)
	st.nextInsts += cfg.PrewarmInsts
	return s.Cycles, s.Retired, nil
}

// layerUnits are the per-layer metrics and their units, in report order.
var layerUnits = []struct{ name, unit string }{
	{"workload.warm_ns_per_inst", "ns/inst"},
	{"workload.next_ns_per_inst", "ns/inst"},
	{"mem.warm_touch_ns", "ns"},
	{"mem.port_retries_per_kinst", "1/kinst"},
	{"mem.bank_conflicts_per_kinst", "1/kinst"},
	{"mem.mshr_stalls_per_kinst", "1/kinst"},
	{"mem.l1_misses_per_kinst", "1/kinst"},
	{"cpu.ns_per_cycle", "ns/cycle"},
	{"cpu.ns_per_inst", "ns/inst"},
	{"sim.region_sweep_ms", "ms"},
	{"sim.fast_forward_ms", "ms"},
	{"sim.warmup_ms", "ms"},
	{"sim.measure_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.replay_coverage", "fraction"},
	{"sim.batch_ms_per_config", "ms"},
	{"sim.minsts_per_s", "Minst/s"},
	{"runner.overhead_ms", "ms"},
	{"runner.hit_us", "us"},
	{"runner.key_us", "us"},
	{"runner.store_get_us", "us"},
	{"runner.store_put_us", "us"},
	{"runner.memo_hit_frac", "fraction"},
	{"runner.store_hit_frac", "fraction"},
	{"service.submit_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.refused_frac", "fraction"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.fabric_overhead_ms", "ms"},
	{"cluster.worker_busy_frac", "fraction"},
	{"cluster.redispatch_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanOf(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// spanSum sums the durations of matching spans, optionally only those of
// the given requests.
func spanSum(t *tracer, name, where string, reqs map[string]bool) time.Duration {
	var sum time.Duration
	for _, s := range t.find(name, where) {
		if reqs == nil || reqs[s.Req] {
			sum += s.dur()
		}
	}
	return sum
}

// layers measures the per-layer metrics of a traced pass p, with base
// the untraced pass before it and v the gate's verdict over both. It
// returns the metrics and the problems it found, each of which fails
// the run.
func layers(ctx context.Context, o options, base, p *pass, t *tracer, v verdict) (map[string]float64, []string, error) {
	l := &layerRun{m: map[string]float64{}, t: t}
	first := map[string]bool{}
	for _, ob := range p.obs {
		if !first[ob.key] {
			first[ob.key] = true
			l.distinct = append(l.distinct, ob)
		}
	}
	for _, step := range []func() error{
		func() error { return l.replay(v) },
		func() error { return l.batch(ctx) },
		func() error { return l.runner(ctx, o.workload, p, v) },
		func() error { return l.service(ctx, o.workload, p) },
		func() error { return l.cluster(ctx, v) },
	} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	l.m["trace.overhead_frac"] = 1 - ratio(throughput(o.workload, p), throughput(o.workload, base))
	return l.m, l.bad, nil
}

// layerRun collects the per-layer metrics of one traced run.
type layerRun struct {
	m        map[string]float64
	bad      []string
	t        *tracer
	distinct []observed // the traced pass's results, one per config
}

func (l *layerRun) fail(format string, args ...any) {
	l.bad = append(l.bad, fmt.Sprintf(format, args...))
}

// replay drives the component replay on the first configs of the gate's
// sample, each checked against the direct run of the same config, and
// derives the workload, mem, cpu and sim phase metrics from it.
func (l *layerRun) replay(v verdict) error {
	t, m := l.t, l.m
	var st replayStats
	replayed := map[string]bool{}
	for _, cfg := range v.sample[:min(replays, len(v.sample))] {
		cycles, retired, err := replay(cfg, t, &st)
		if err != nil {
			return err
		}
		key, err := runner.Key(cfg)
		if err != nil {
			return err
		}
		replayed[key] = true
		if ref := v.refs[key]; cycles != ref.Cycles || retired != ref.Instructions {
			l.fail("replay of %s took %d cycles for %d instructions; sim.RunContext took %d for %d",
				cfg.Benchmark, cycles, retired, ref.Cycles, ref.Instructions)
		}
	}
	n := float64(st.configs)
	m["workload.warm_ns_per_inst"] = ratio(float64(spanSum(t, "workload.warm", "replay", nil)), float64(st.warmInsts))
	m["workload.next_ns_per_inst"] = ratio(float64(spanSum(t, "workload.next", "replay", nil)), float64(st.nextInsts))
	m["mem.warm_touch_ns"] = ratio(float64(spanSum(t, "mem.warm_touch", "replay", nil)), float64(st.touches))
	kinst := float64(st.measured) / 1000
	m["mem.port_retries_per_kinst"] = ratio(float64(st.portRetries), kinst)
	m["mem.bank_conflicts_per_kinst"] = ratio(float64(st.bankConflicts), kinst)
	m["mem.mshr_stalls_per_kinst"] = ratio(float64(st.mshrStalls), kinst)
	m["mem.l1_misses_per_kinst"] = ratio(float64(st.l1Misses), kinst)
	run := spanSum(t, "cpu.run", "replay", nil)
	m["cpu.ns_per_cycle"] = ratio(float64(run), float64(st.cycles))
	m["cpu.ns_per_inst"] = ratio(float64(run), float64(st.retired))
	var phases time.Duration
	for _, ph := range []string{"region_sweep", "fast_forward", "warmup", "measure"} {
		d := spanSum(t, "sim."+ph, "replay", nil)
		phases += d
		m["sim."+ph+"_ms"] = ratio(ms(d), n)
	}
	direct := spanSum(t, "sim.run", "ref", replayed)
	m["sim.run_ms"] = ratio(ms(direct), n)
	m["sim.replay_coverage"] = ratio(float64(phases), float64(direct))
	m["sim.minsts_per_s"] = ratio(float64(st.simInsts)/1e6, direct.Seconds())
	return nil
}

// batch runs one batch group of the workload's configs through
// sim.RunBatch, each lane checked against the workload's own result.
func (l *layerRun) batch(ctx context.Context) error {
	group := l.distinct[:min(lanes, len(l.distinct))]
	cfgs := make([]sim.Config, len(group))
	for i, ob := range group {
		cfgs[i] = ob.cfg
	}
	start := time.Now()
	res, errs := sim.RunBatch(ctx, cfgs, sim.RunOpts{})
	l.t.since("sim.batch", 0, "", "probe", start)
	l.m["sim.batch_ms_per_config"] = ratio(ms(time.Since(start)), float64(len(cfgs)))
	for i, ob := range group {
		if errs[i] != nil {
			l.fail("batch lane %s: %v", ob.cfg.Benchmark, errs[i])
		} else if !sameResult(res[i], ob.res) {
			l.fail("batch lane %s differs from the %s result", ob.cfg.Benchmark, ob.path)
		}
	}
	return nil
}

// runner measures the runner's overhead per miss outside the Sim seam,
// its hit fractions, memo answers, keys and store calls.
func (l *layerRun) runner(ctx context.Context, workload string, p *pass, v verdict) error {
	t, m := l.t, l.m
	where, walls := "node", p.walls
	switch workload {
	case "sweep": // the batch kernel bypasses the seam; use the gate's reference runner
		where, walls = "ref", v.walls
	}
	simDur := t.durByReq("sim.run", where)
	var over []time.Duration
	for k, wall := range walls {
		if d, ok := simDur[k]; ok {
			over = append(over, wall-d)
		}
	}
	m["runner.overhead_ms"] = ms(meanOf(over))

	// Taken before the memo answers below add hits of their own.
	rm := p.runner.Metrics()
	m["runner.memo_hit_frac"] = ratio(float64(rm.MemoHits), float64(rm.Done))
	m["runner.store_hit_frac"] = ratio(float64(rm.CacheHits), float64(rm.Done))

	var hits, keys []time.Duration
	for i, ob := range l.distinct {
		start := time.Now()
		if _, err := runner.Key(ob.cfg); err != nil {
			return err
		}
		keys = append(keys, time.Since(start))
		if i >= 16 {
			continue
		}
		start = time.Now()
		jr := p.runner.RunJob(ctx, ob.cfg)
		hits = append(hits, time.Since(start))
		t.since("runner.hit", 0, ob.key, "probe", start)
		if !jr.MemoHit || jr.Err != nil || !sameResult(jr.Result, ob.res) {
			l.fail("runner memo answer for %s differs from the %s result", ob.cfg.Benchmark, ob.path)
		}
	}
	m["runner.hit_us"] = us(meanOf(hits))
	m["runner.key_us"] = us(meanOf(keys))

	// The workload's own store; hbserved's single node keeps none, so on
	// jobs one is timed over the workload's results.
	storeOf := map[string]string{"sweep": "sweep", "jobs": "probe"}[workload]
	if workload == "jobs" {
		s := traceStore(t, runner.NewMemStore(), "probe")
		for _, ob := range l.distinct {
			if err := s.Put(ob.key, ob.cfg, ob.res); err != nil {
				return err
			}
			if got, ok := s.Get(ob.key); !ok || !sameResult(got, ob.res) {
				l.fail("store round trip of %s changed the result", ob.cfg.Benchmark)
			}
		}
	}
	for _, call := range []string{"get", "put"} {
		var ds []time.Duration
		for _, s := range t.find("runner.store_"+call, "") {
			if strings.HasPrefix(s.Where, storeOf) {
				ds = append(ds, s.dur())
			}
		}
		m["runner.store_"+call+"_us"] = us(meanOf(ds))
	}
	return nil
}

// service measures submissions on the jobs workload; on sweep a node over the sweep's runner answers single jobs from its memo.
func (l *layerRun) service(ctx context.Context, workload string, p *pass) error {
	svc := p
	if workload == "sweep" {
		svc = newPass()
		if err := serviceProbe(ctx, p.runner, l.distinct, l.t, svc); err != nil {
			return err
		}
	}
	submit, _ := l.t.meanDur("service.submit", "client")
	l.m["service.submit_ms"] = ms(submit)
	l.m["service.overhead_ms"] = ms(meanOf(svc.svcOverhead))
	l.m["service.refused_frac"] = ratio(float64(svc.refused), float64(svc.submissions))
	return nil
}

// cluster measures the fabric: a small fleet runs part of the gate's
// sample as one sweep, each result checked against the direct run.
func (l *layerRun) cluster(ctx context.Context, v verdict) error {
	t, m := l.t, l.m
	obs, window, err := clusterProbe(ctx, v.sample[:min(4, len(v.sample))], t)
	if err != nil {
		return err
	}
	for _, ob := range obs {
		if ref, ok := v.refs[ob.key]; !ok || !sameResult(ref, ob.res) {
			l.fail("cluster probe result for %s differs from a direct sim.RunContext", ob.cfg.Benchmark)
		}
	}
	workerSim := map[string]time.Duration{}
	var workerSpans []span
	for i := 0; i < fleetWorkers; i++ {
		for _, s := range t.find("sim.run", fmt.Sprintf("worker-%d", i)) {
			workerSim[s.Req] += s.dur()
			workerSpans = append(workerSpans, s)
		}
	}
	var disp, fabric []time.Duration
	for _, s := range t.find("cluster.dispatch", "coordinator") {
		disp = append(disp, s.dur())
		fabric = append(fabric, s.dur()-workerSim[s.Req])
	}
	m["cluster.dispatch_ms"] = ms(meanOf(disp))
	m["cluster.fabric_overhead_ms"] = ms(meanOf(fabric))
	m["cluster.worker_busy_frac"] = workerBusy(t, window, workerSpans)
	m["cluster.redispatch_frac"] = ratio(float64(len(workerSpans)-len(workerSim)), float64(len(workerSim)))
	return nil
}

// workerBusy is the share of the sweep's window its busiest worker
// spent simulating: the worker that sets when the sweep ends.
func workerBusy(t *tracer, window [2]time.Time, spans []span) float64 {
	lo, hi := int64(window[0].Sub(t.t0)), int64(window[1].Sub(t.t0))
	busy := map[string]int64{}
	for _, s := range spans {
		if a, b := max(s.Start, lo), min(s.End, hi); b > a {
			busy[s.Where] += b - a
		}
	}
	var top int64
	for _, b := range busy {
		top = max(top, b)
	}
	return ratio(float64(top), float64(hi-lo))
}

// throughput is the workload's headline rate: configs per second on
// sweep, jobs per second on jobs.
func throughput(workload string, p *pass) float64 {
	if workload == "jobs" {
		return ratio(float64(p.results), p.wall.Seconds())
	}
	return ratio(float64(p.simulated), p.simWall.Seconds())
}

// serviceProbe serves r from a fresh node and submits up to eight of
// the observed configs as single jobs, one at a time.
func serviceProbe(ctx context.Context, r *runner.Runner, obs []observed, t *tracer, p *pass) error {
	n, err := startNode(r, service.Options{})
	if err != nil {
		return err
	}
	defer n.close()
	c := newClient()
	defer c.close()
	if err := c.waitReady(ctx, n.url); err != nil {
		return err
	}
	for _, ob := range obs[:min(8, len(obs))] {
		out := c.runJob(ctx, n.url, ob.cfg, t)
		if err := p.recordJob(out, false, "service.probe"); err != nil {
			return err
		}
	}
	return nil
}

// clusterProbe runs cfgs as one sweep on a fresh traced fleet, follows
// the sweep's events to the end, and returns its results with the
// sweep's window from submit to last event.
func clusterProbe(ctx context.Context, cfgs []sim.Config, t *tracer) ([]observed, [2]time.Time, error) {
	var window [2]time.Time
	c := newClient()
	defer c.close()
	f, err := startFleet(ctx, t, c.hc)
	if err != nil {
		return nil, window, err
	}
	defer f.close()
	if err := c.waitReady(ctx, f.head.url); err != nil {
		return nil, window, err
	}
	window[0] = time.Now()
	view, err := c.submitSweep(ctx, f.head.url, cfgs)
	if err != nil {
		return nil, window, err
	}
	err = c.events(ctx, f.head.url+"/v1/sweeps/"+view.ID+"/events", func(ev service.Event, at time.Time) bool {
		window[1] = at
		return ev.Done+ev.Failed < ev.Total
	})
	if err != nil {
		return nil, window, err
	}
	res, err := c.sweepResults(ctx, f.head.url, view.ID)
	if err != nil {
		return nil, window, err
	}
	var obs []observed
	for _, pt := range res.Points {
		if pt.State != service.StateDone || pt.Result == nil {
			return nil, window, fmt.Errorf("cluster probe point %s ended %s: %s", pt.JobID, pt.State, pt.Error)
		}
		ob, err := observe(pt.Config, *pt.Result, "cluster.probe")
		if err != nil {
			return nil, window, err
		}
		obs = append(obs, ob)
	}
	return obs, window, nil
}

func sameResult(a, b sim.Result) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}
