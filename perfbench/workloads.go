package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbcache/internal/runner"
	"hbcache/internal/service"
	"hbcache/internal/sim"
)

// pass is what one timed pass of a workload observed.
type pass struct {
	setups    []time.Duration
	wall      time.Duration // timed wall
	simWall   time.Duration // wall from submit to last result of the simulating requests
	simulated int           // distinct configs simulated
	results   int           // results delivered, repeats included
	miss, hit []time.Duration
	peakRSS   float64       // MB, over the timed part
	coldSetup time.Duration // benchmark start until the first set-up was ready
	// Per sweep repetition: configs per second and sweeps per second of
	// the cold sweep.
	repConfigRates, repSweepRates []float64

	attempted, refused, failed int
	submissions                int      // HTTP submissions, the base of service.refused_frac
	mismatches                 []string // repeats that differed from the first result

	obs []observed

	// For the per-layer metrics of a traced pass.
	walls       map[string]time.Duration // runner-reported wall per simulated config
	svcOverhead []time.Duration          // client latency − runner wall, per simulated job
	runner      *runner.Runner           // the workload's runner: its memo holds every observed config
}

func newPass() *pass { return &pass{walls: map[string]time.Duration{}} }

// setup records set-up i of a run, which began at start.
func (p *pass) setup(o options, i int, start time.Time) {
	now := time.Now()
	p.setups = append(p.setups, now.Sub(start))
	if i == 0 {
		p.coldSetup = now.Sub(o.started)
	}
}

// repeated folds in one repeat answer, compared in place with the first
// result of its config so that thousands of memo answers cost no memory.
func (p *pass) repeated(path string, cfg sim.Config, got, first sim.Result) {
	p.results++
	if got != first {
		p.mismatches = append(p.mismatches, fmt.Sprintf("%s %s: repeat differs from the first result", path, cfg.Benchmark))
	}
}

// coldRep records one cold sweep of n configs that took wall.
func (p *pass) coldRep(n int, wall time.Duration) {
	p.simWall += wall
	p.repConfigRates = append(p.repConfigRates, float64(n)/wall.Seconds())
	p.repSweepRates = append(p.repSweepRates, 1/wall.Seconds())
}

func (p *pass) observe(cfg sim.Config, res sim.Result, path string) error {
	ob, err := observe(cfg, res, path)
	if err != nil {
		return err
	}
	p.obs = append(p.obs, ob)
	p.results++
	return nil
}

// runPass runs one timed pass of the workload, recording spans into t
// when it is non-nil.
func runPass(ctx context.Context, o options, t *tracer, dur time.Duration) (*pass, error) {
	switch o.workload {
	case "sweep":
		return sweepPass(ctx, o, t, dur)
	case "jobs":
		return jobsPass(ctx, o, t, dur)
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep or jobs)", o.workload)
}

// sweepPass: one caller, one runner.Run per grid repetition with the
// lockstep batch kernel, then the same grid again from the memo.
func sweepPass(ctx context.Context, o options, t *tracer, dur time.Duration) (*pass, error) {
	p := newPass()
	var r *runner.Runner
	for i := 0; i < setups; i++ {
		debug.FreeOSMemory() // every set-up starts from the same heap, its pages returned
		start := time.Now()
		for _, cfg := range o.grid(0) {
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
		}
		var err error
		r, err = runner.New(runner.Options{Workers: streams, BatchSize: lanes, Store: traceStore(t, runner.NewMemStore(), "sweep")})
		if err != nil {
			return nil, err
		}
		p.setup(o, i, start)
	}
	p.runner = r

	var mu sync.Mutex
	var stamps []time.Time
	remove := r.AddListener(func(runner.Metrics) {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
	})
	defer remove()
	// run submits cfgs and returns the results with the time from the
	// call to each result's completion.
	run := func(cfgs []sim.Config, path string) ([]runner.JobResult, []time.Duration, time.Duration, error) {
		mu.Lock()
		stamps = stamps[:0]
		mu.Unlock()
		start := time.Now()
		jrs, err := r.Run(ctx, cfgs)
		wall := time.Since(start)
		t.since("runner.run", 0, path, "sweep", start)
		mu.Lock()
		defer mu.Unlock()
		lat := make([]time.Duration, len(stamps))
		for i, s := range stamps {
			lat[i] = s.Sub(start)
		}
		return jrs, lat, wall, err
	}
	collect := func(jrs []runner.JobResult, path string) error {
		for _, jr := range jrs {
			p.attempted++
			if jr.Err != nil {
				p.failed++
				continue
			}
			if jr.Attempts > 0 {
				p.simulated++
			}
			if err := p.observe(jr.Config, jr.Result, path); err != nil {
				return err
			}
		}
		return nil
	}

	rss := startRSS()
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < dur; rep++ {
		cfgs := o.grid(rep)
		cold, lat, wall, err := run(cfgs, "sweep")
		if err != nil {
			return nil, err
		}
		p.miss = append(p.miss, lat...)
		p.coldRep(len(cfgs), wall)
		if err := collect(cold, "sweep"); err != nil {
			return nil, err
		}
		for hs := time.Now(); time.Since(hs) < hitPhase; {
			again, lat, _, err := run(cfgs, "sweep.repeat")
			if err != nil {
				return nil, err
			}
			p.hit = append(p.hit, lat...)
			for i, jr := range again {
				p.attempted++
				if jr.Err != nil {
					p.failed++
					continue
				}
				p.repeated("sweep.repeat", jr.Config, jr.Result, cold[i].Result)
			}
		}
	}
	p.wall = time.Since(start)
	p.peakRSS = rss.end()
	return p, nil
}

// Closed-loop clients of the jobs workload, how often a client repeats
// a config instead of drawing a fresh one, and how long sweep keeps
// resubmitting each repetition's grid from the memo.
//
// The repeat share and the hit phase are assumptions, not measurements:
// the service documents that resubmissions happen (dedup, memo and
// store answers) but nothing records how often callers make them. One
// repeat in four gives hit_p50_ms about 75 samples in a 45 s jobs run
// while three submissions in four still simulate. A 500 ms hit phase is
// a tenth of a cold 48-point repetition, so about eight repetitions
// still fit in 45 s and every one of them samples the repeat latency.
const (
	jobClients  = streams
	repeatEvery = 4
	hitPhase    = 500 * time.Millisecond
)

// jobsPass: one closed-loop client against a single node. Every
// repeatEvery-th submission of a client re-submits an earlier config.
func jobsPass(ctx context.Context, o options, t *tracer, dur time.Duration) (*pass, error) {
	p := newPass()
	c := newClient()
	defer c.close()
	var (
		n    *node
		pool []sim.Config
	)
	for i := 0; i < setups; i++ {
		debug.FreeOSMemory() // every set-up starts from the same heap, its pages returned
		if n != nil {
			n.close()
		}
		start := time.Now()
		pool = o.jobPool()
		var err error
		if n, err = startSingle(t); err != nil {
			return nil, err
		}
		if err := c.waitReady(ctx, n.url); err != nil {
			n.close()
			return nil, err
		}
		p.setup(o, i, start)
	}
	defer n.close()
	p.runner = n.run

	var (
		mu      sync.Mutex
		fresh   int // pool configs handed out
		repeats int // repeats handed out; the j-th repeats pool[j]
	)
	rss := startRSS()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for cl := 0; cl < jobClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				mu.Lock()
				repeat := i%repeatEvery == repeatEvery-1 && fresh > 0
				var cfg sim.Config
				switch {
				case repeat:
					cfg = pool[repeats%fresh]
					repeats++
				case fresh < len(pool):
					cfg = pool[fresh]
					fresh++
				default:
					mu.Unlock()
					return
				}
				mu.Unlock()
				out := c.runJob(ctx, n.url, cfg, t)
				mu.Lock()
				if err := p.recordJob(out, repeat, "jobs"); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.simWall = p.wall
	p.peakRSS = rss.end()
	return p, nil
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	submit, latency time.Duration
	view            service.JobView
	err             error
}

// runJob submits cfg, waits for the job's terminal event, and fetches
// the finished job.
func (c *client) runJob(ctx context.Context, base string, cfg sim.Config, t *tracer) jobOutcome {
	start := time.Now()
	view, err := c.submitJob(ctx, base, cfg)
	submitted := time.Now()
	if err != nil {
		return jobOutcome{err: err}
	}
	at, err := c.awaitJob(ctx, base, view.ID)
	if err != nil {
		return jobOutcome{err: err}
	}
	parent := t.add("service.job", 0, view.Key, "client", start, at)
	t.add("service.submit", parent, view.Key, "client", start, submitted)
	t.add("service.wait", parent, view.Key, "client", submitted, at)
	final, err := c.job(ctx, base, view.ID)
	return jobOutcome{submit: submitted.Sub(start), latency: at.Sub(start), view: final, err: err}
}

// recordJob folds one job into the pass. The caller holds any lock.
func (p *pass) recordJob(out jobOutcome, repeat bool, path string) error {
	p.attempted++
	p.submissions++
	switch {
	case errors.Is(out.err, errRefused):
		p.refused++
		return nil
	case out.err != nil:
		p.failed++
		return out.err
	case out.view.State != service.StateDone || out.view.Result == nil:
		p.failed++
		return fmt.Errorf("job %s ended %s: %s", out.view.ID, out.view.State, out.view.Error)
	}
	wall := time.Duration(out.view.WallNs)
	if repeat {
		p.hit = append(p.hit, out.latency)
		path += ".repeat"
	} else {
		p.miss = append(p.miss, out.latency)
		p.simulated++
		p.walls[out.view.Key] = wall
		p.svcOverhead = append(p.svcOverhead, out.latency-wall)
	}
	return p.observe(out.view.Config, *out.view.Result, path)
}

// rssPeak samples the process's resident set every 10 ms and keeps the
// peak.
type rssPeak struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS() *rssPeak {
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{}), peak: procStatus("VmRSS:")}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.peak = max(r.peak, procStatus("VmRSS:"))
			}
		}
	}()
	return r
}

// end stops sampling and returns the peak in MB.
func (r *rssPeak) end() float64 {
	close(r.stop)
	<-r.done
	return float64(max(r.peak, procStatus("VmRSS:"))) / (1 << 20)
}

// procStatus reads one kB-valued field of /proc/self/status, in bytes.
func procStatus(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
