package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"hbcache/internal/cpu"
	"hbcache/internal/fo4"
	"hbcache/internal/mem"
	"hbcache/internal/runner"
	"hbcache/internal/sim"
	"hbcache/internal/workload"
)

// options is one benchmark run.
type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	root     string
	commit   string
	started  time.Time // benchmark start
	// spanDir receives the traced run's spans; empty writes none.
	spanDir string

	// Sizing. The defaults are the windows users get (sim.WithDefaults);
	// the self-test shrinks them.
	prewarm, warmup, measure uint64 // zero: sim defaults
	sizes                    []int  // L1 sizes of the sweep grid
	sample                   int    // distinct configs the gate re-runs directly

	// tamper, when set, alters one result the workload returned before
	// the gate sees it; the self-test proves the gate catches it.
	tamper func(*sim.Result)
}

func defaultOptions() options {
	return options{
		sizes:  []int{8 << 10, 32 << 10, 128 << 10, 512 << 10},
		sample: 4,
	}
}

const (
	setups  = 101 // set-ups per run; setup_s is their median, steadier than one set-up of a few milliseconds
	replays = 2   // configs of the gate's sample the traced run replays by component
	lanes   = 8   // lockstep lanes of the sweep and of the traced batch group; fastest in sizing runs
)

// organization is one L1 port design of the paper.
type organization struct {
	ports      mem.PortConfig
	lineBuffer bool
}

// headline are the paper's headline organizations: ideal one and two
// ports, eight-way banking, and duplication with a line buffer.
var headline = []organization{
	{mem.PortConfig{Kind: mem.IdealPorts, Count: 1}, false},
	{mem.PortConfig{Kind: mem.IdealPorts, Count: 2}, false},
	{mem.PortConfig{Kind: mem.BankedPorts, Count: 8}, false},
	{mem.PortConfig{Kind: mem.DuplicatePorts}, true},
}

func (o options) config(bench string, seed uint64, size int, org organization) sim.Config {
	return sim.Config{
		Benchmark:    bench,
		Seed:         seed,
		CPU:          cpu.DefaultConfig(),
		Memory:       mem.DefaultSRAMSystem(size, 1, org.ports, org.lineBuffer),
		PrewarmInsts: o.prewarm,
		WarmupInsts:  o.warmup,
		MeasureInsts: o.measure,
	}
}

// simSeed derives the simulation seed of one sweep repetition from the
// workload seed, so every repetition simulates distinct configs.
func (o options) simSeed(rep int) uint64 {
	return rand.New(rand.NewPCG(o.seed, uint64(rep)+0x5eed)).Uint64N(1<<31) + 1
}

// grid is the design grid of sweep repetition rep: the three
// representative models × the L1 sizes × the headline organizations,
// benchmark-major so neighbouring points share a batch stream. Windows
// are resolved the way every boundary resolves them.
func (o options) grid(rep int) []sim.Config {
	seed := o.simSeed(rep)
	var cfgs []sim.Config
	for _, bench := range workload.RepresentativeNames() {
		for _, size := range o.sizes {
			for _, org := range headline {
				cfgs = append(cfgs, o.config(bench, seed, size, org).WithDefaults())
			}
		}
	}
	return cfgs
}

// jobPool is the jobs workload's population: all nine models × every
// size on the Figure 8 axis × the headline organizations × four
// simulation seeds, shuffled by the workload seed. Windows stay zero so
// the service resolves its defaults.
func (o options) jobPool() []sim.Config {
	rng := rand.New(rand.NewPCG(o.seed, 0x10b5))
	seeds := make([]uint64, 4)
	for i := range seeds {
		seeds[i] = rng.Uint64N(1<<31) + 1
	}
	var pool []sim.Config
	for _, bench := range workload.BenchmarkNames() {
		for _, size := range fo4.PowerOfTwoSizes() {
			for _, org := range headline {
				for _, s := range seeds {
					pool = append(pool, o.config(bench, s, size, org))
				}
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// observed is one result a workload returned, with the path it came by.
type observed struct {
	key  string
	cfg  sim.Config // resolved
	res  sim.Result
	path string
}

func observe(cfg sim.Config, res sim.Result, path string) (observed, error) {
	cfg = runner.Canonical(cfg)
	key, err := runner.Key(cfg)
	return observed{key: key, cfg: cfg, res: res, path: path}, err
}

func nproc() int { return runtime.NumCPU() }
