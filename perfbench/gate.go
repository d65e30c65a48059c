package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"hbcache/internal/runner"
	"hbcache/internal/sim"
)

// verdict is the correctness gate's finding over a run's results.
type verdict struct {
	checked int            // observations checked
	bad     map[int]string // observation index → what was wrong with it
	refs    map[string]sim.Result
	// walls is the reference runner's wall per config, for the runner's
	// overhead on the sweep workload.
	walls  map[string]time.Duration
	sample []sim.Config // the configs re-run directly, in sample order
}

func (v *verdict) fail(i int, format string, args ...any) {
	if _, dup := v.bad[i]; !dup {
		v.bad[i] = fmt.Sprintf(format, args...)
	}
}

// checkResult is what every result must satisfy on its own. The core
// retires up to RetireWidth instructions a cycle and a window ends on
// the cycle that reaches its count, so a measure window retires its
// count plus at most RetireWidth-1.
func checkResult(cfg sim.Config, res sim.Result) error {
	switch {
	case res.Instructions < cfg.MeasureInsts || res.Instructions >= cfg.MeasureInsts+uint64(cfg.CPU.RetireWidth):
		return fmt.Errorf("retired %d instructions, want the measure window's %d plus less than the retire width %d",
			res.Instructions, cfg.MeasureInsts, cfg.CPU.RetireWidth)
	case res.Cycles == 0:
		return fmt.Errorf("zero cycles")
	case !(res.IPC > 0 && res.IPC <= float64(cfg.CPU.IssueWidth)):
		return fmt.Errorf("IPC %v outside (0, %d]", res.IPC, cfg.CPU.IssueWidth)
	}
	return nil
}

// gate checks every observation: the result's own invariants, byte
// identity across every path and repeat of one config, and byte
// identity with a direct sim.RunContext on a seeded sample of configs.
// The sample runs on workers goroutines outside any timed part.
func gate(ctx context.Context, o options, obs []observed, t *tracer, workers int) (verdict, error) {
	v := verdict{bad: map[int]string{}}
	first := map[string][]byte{}
	var keys []string
	cfgOf := map[string]sim.Config{}
	for i, ob := range obs {
		v.checked++
		if err := checkResult(ob.cfg, ob.res); err != nil {
			v.fail(i, "%s %s: %v", ob.path, ob.cfg.Benchmark, err)
		}
		b, err := json.Marshal(ob.res)
		if err != nil {
			return v, err
		}
		if f, ok := first[ob.key]; !ok {
			first[ob.key] = b
			keys = append(keys, ob.key)
			cfgOf[ob.key] = ob.cfg
		} else if !bytes.Equal(f, b) {
			v.fail(i, "%s %s: result differs from the first result of the same config", ob.path, ob.cfg.Benchmark)
		}
	}

	rng := rand.New(rand.NewPCG(o.seed, 0x6a7e))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:min(o.sample, len(keys))] {
		v.sample = append(v.sample, cfgOf[k])
	}
	refs, walls, err := references(ctx, v.sample, t, workers)
	if err != nil {
		return v, err
	}
	v.refs, v.walls = refs, walls
	for i, ob := range obs {
		ref, ok := refs[ob.key]
		if !ok {
			continue
		}
		b, _ := json.Marshal(ob.res)
		rb, err := json.Marshal(ref)
		if err != nil {
			return v, err
		}
		if !bytes.Equal(b, rb) {
			v.fail(i, "%s %s: result differs from a direct sim.RunContext", ob.path, ob.cfg.Benchmark)
		}
	}
	return v, nil
}

// references re-runs cfgs with a direct sim.RunContext, through a fresh
// runner only so the runner's own overhead can be taken from the same
// calls. The results returned are what sim.RunContext itself returned.
func references(ctx context.Context, cfgs []sim.Config, t *tracer, workers int) (map[string]sim.Result, map[string]time.Duration, error) {
	var mu sync.Mutex
	raw := map[string]sim.Result{}
	direct := func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		res, err := sim.RunContext(ctx, cfg, sim.RunOpts{})
		if err != nil {
			return res, err
		}
		key, err := runner.Key(cfg)
		if err != nil {
			return res, err
		}
		mu.Lock()
		raw[key] = res
		mu.Unlock()
		return res, nil
	}
	simFn := tracedSim(t, "sim.run", "ref", direct)
	if simFn == nil {
		simFn = direct
	}
	r, err := runner.New(runner.Options{Workers: workers, Sim: simFn})
	if err != nil {
		return nil, nil, err
	}
	jrs, err := r.Run(ctx, cfgs)
	if err != nil {
		return nil, nil, err
	}
	walls := map[string]time.Duration{}
	for _, jr := range jrs {
		if jr.Err != nil {
			return nil, nil, fmt.Errorf("reference run of %s: %w", jr.Config.Benchmark, jr.Err)
		}
		key, err := runner.Key(jr.Config)
		if err != nil {
			return nil, nil, err
		}
		walls[key] = jr.Wall
	}
	return raw, walls, nil
}
