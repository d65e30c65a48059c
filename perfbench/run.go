package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// run executes one benchmark run and prints its human-readable lines to
// out; the caller prints the report as the last line.
func run(ctx context.Context, o options, out io.Writer) (report, error) {
	switch o.workload {
	case "sweep", "jobs":
	default:
		return report{}, fmt.Errorf("unknown workload %q (want sweep or jobs)", o.workload)
	}
	fmt.Fprintf(out, "# host %s\n", fingerprint(o))
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %t\n", o.workload, o.seed, o.duration.Seconds(), o.trace)
	if !o.trace {
		p, err := runPass(ctx, o, nil, o.duration)
		if err != nil {
			return report{}, err
		}
		tamper(o, p)
		v, err := gate(ctx, o, p.obs, nil, nproc())
		if err != nil {
			return report{}, err
		}
		rep := verdictReport(out, []*pass{p}, v, nil)
		rep.Metrics = endToEnd(out, p)
		return rep, nil
	}

	// Traced: an untraced half for the tracing overhead, then a traced
	// half the per-layer metrics come from.
	base, err := runPass(ctx, o, nil, o.duration/2)
	if err != nil {
		return report{}, err
	}
	t := newTracer()
	p, err := runPass(ctx, o, t, o.duration-o.duration/2)
	if err != nil {
		return report{}, err
	}
	tamper(o, p)
	v, err := gate(ctx, o, append(append([]observed(nil), base.obs...), p.obs...), t, 1)
	if err != nil {
		return report{}, err
	}
	lm, bad, err := layers(ctx, o, base, p, t, v)
	if err != nil {
		return report{}, err
	}
	rep := verdictReport(out, []*pass{base, p}, v, bad)
	rep.Metrics = map[string]metric{}
	for _, l := range layerUnits {
		rep.Metrics[l.name] = metric{Value: lm[l.name], Unit: l.unit}
		fmt.Fprintf(out, "# layer %-30s %14.4f %s\n", l.name, lm[l.name], l.unit)
	}
	self := selfTime(t.snapshot())
	var names []string
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# self %-10s %10.2f ms\n", name, ms(self[name]))
	}
	if o.spanDir != "" {
		path, err := t.writeSpans(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(out, "# spans %s\n", path)
	}
	return rep, nil
}

// tamper applies the self-test's alteration to the first observation.
func tamper(o options, p *pass) {
	if o.tamper != nil && len(p.obs) > 0 {
		o.tamper(&p.obs[0].res)
	}
}

// verdictReport prints the gate's findings and error rate, and fills
// the report's counts. Failed counts failed, refused and incorrect
// results together.
func verdictReport(out io.Writer, passes []*pass, v verdict, bad []string) report {
	var attempted, failed, refused int
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		refused += p.refused
		bad = append(bad, p.mismatches...)
	}
	idx := make([]int, 0, len(v.bad))
	for i := range v.bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Fprintf(out, "# incorrect %s\n", v.bad[i])
	}
	for _, b := range bad {
		fmt.Fprintf(out, "# incorrect %s\n", b)
	}
	incorrect := len(v.bad) + len(bad)
	total := failed + refused + incorrect
	fmt.Fprintf(out, "# gate checked %d results, %d re-run directly: %d incorrect\n", v.checked, len(v.sample), incorrect)
	fmt.Fprintf(out, "# error_rate %.6f fraction (%d failed + %d refused + %d incorrect of %d attempted)\n",
		ratio(float64(total), float64(attempted)), failed, refused, incorrect, attempted)
	return report{
		Correct:   failed == 0 && incorrect == 0,
		Attempted: max(attempted, 1),
		Failed:    total,
	}
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(out io.Writer, p *pass) map[string]metric {
	missQ := tailQuantile(len(p.miss))
	configRate := ratio(float64(p.simulated), p.simWall.Seconds())
	requestRate := ratio(float64(p.results), p.wall.Seconds())
	if len(p.repConfigRates) > 0 {
		configRate, requestRate = medianOf(p.repConfigRates), medianOf(p.repSweepRates)
	}
	m := map[string]metric{
		"setup_s":       {median(p.setups).Seconds(), "s"},
		"configs_per_s": {configRate, "configs/s"},
		"jobs_per_s":    {requestRate, "jobs/s"},
		"job_p50_ms":    {ms(quantile(p.miss, 0.5)), "ms"},
		"job_p90_ms":    {ms(quantile(p.miss, missQ)), "ms"},
		"hit_p50_ms":    {ms(quantile(p.hit, 0.5)), "ms"},
		"peak_rss_mb":   {p.peakRSS, "MB"},
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# metric %-14s %12.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	if len(p.repConfigRates) > 0 {
		fmt.Fprintf(out, "# repetitions configs/s %.3f\n", p.repConfigRates)
	}
	fmt.Fprintf(out, "# setup cold_s %.6f s (benchmark start until the first set-up was ready)\n", p.coldSetup.Seconds())
	fmt.Fprintf(out, "# samples setups %d, simulating %d (job_p90_ms is p%.1f), repeats %d, results %d in %.2f s\n",
		len(p.setups), len(p.miss), 100*missQ, len(p.hit), p.results, p.wall.Seconds())
	return m
}

// tailQuantile is the highest quantile up to 0.9 with at least ten
// samples beyond it.
func tailQuantile(n int) float64 {
	q := 0.9
	if n > 1 && float64(n-1)*(1-q) < 10 {
		q = math.Max(0.5, 1-10/float64(n-1))
	}
	return q
}

// quantile is the q-quantile of ds, interpolated linearly between the
// two nearest order statistics.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fingerprint names the host and the code a run measured.
func fingerprint(o options) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.commit, sourceDigest(o.root))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// run is tied to its code even where the checkout is not a git
// repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
