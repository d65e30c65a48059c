package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"

	"hbcache/internal/sim"
)

// Forget drops the memoized outcome for cfg, so the next submission of
// the same canonical config re-executes instead of replaying the memo.
// The service's job-resume path needs this: the runner memoizes
// failures (deterministic sims fail deterministically), but a
// budget-truncated job that parked an abort snapshot will make fresh
// progress on re-execution. Callers must not Forget a config while a
// job for it is still in flight.
func (r *Runner) Forget(cfg sim.Config) error {
	key, err := Key(cfg)
	if err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.memo, key)
	r.mu.Unlock()
	return nil
}

// snapshotSim wraps the default simulator with abort checkpoints under
// dir. Each attempt resumes this config's parked abort snapshot
// (abort-<key>.json, keyed by the full canonical config, since a resume
// must match exactly) if one exists, and a budget-truncated attempt
// parks one there so the next attempt continues instead of restarting.
// An unusable snapshot (sim.ErrSnapshot — it was quarantined to
// *.corrupt) falls back to one cold attempt, so a corrupt file costs
// throughput, never correctness or availability.
func snapshotSim(dir string, runOpts sim.RunOpts) func(context.Context, sim.Config) (sim.Result, error) {
	return func(ctx context.Context, cfg sim.Config) (sim.Result, error) {
		opts := runOpts
		cfg = cfg.WithDefaults()
		// Sampled runs neither resume nor leave snapshots: their retired
		// stream is discontinuous, so exact-resume semantics don't exist
		// for them (and sim rejects Sample+Resume outright).
		if cfg.Sample != nil {
			return sim.RunContext(ctx, cfg, opts)
		}
		key, err := Key(cfg)
		if err != nil {
			return sim.RunContext(ctx, cfg, opts)
		}
		abortPath := filepath.Join(dir, "abort-"+key+".json")
		opts.SnapshotOnAbort = abortPath
		if _, serr := os.Stat(abortPath); serr == nil {
			opts.Resume = abortPath
		}
		res, err := sim.RunContext(ctx, cfg, opts)
		if errors.Is(err, sim.ErrSnapshot) {
			// The bad file is quarantined; this config runs cold once.
			opts.Resume = ""
			res, err = sim.RunContext(ctx, cfg, opts)
		}
		if err == nil {
			// The job completed; a leftover abort checkpoint would only
			// shadow the result cache on some future re-run.
			os.Remove(abortPath)
		}
		return res, err
	}
}
