// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON record for performance tracking. Every metric
// column is captured generically — ns/op, B/op, allocs/op, and custom
// b.ReportMetric units like insts/sec — and repeated runs of one
// benchmark (from -count=N) are kept as separate samples so downstream
// tooling can compute its own statistics. The report stamps the host
// the numbers came from, and a baseline comparison across hosts is
// refused: timings from different machines do not compare.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -count=10 | benchjson -commit $(git rev-parse --short HEAD) > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// sample is one benchmark result line.
type sample struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// hostInfo fingerprints the machine the benchmarks ran on, together
// with the report's Go version, GOOS and GOARCH. CPU is the model go
// test prints in its "cpu:" header, and GOMAXPROCS comes from the
// benchmark names' -N suffix (absent when it is 1).
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// report is the emitted document.
type report struct {
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Host       hostInfo `json:"host"`
	Benchmarks []sample `json:"benchmarks"`
	// SampledSpeedup is the mean "sampled-speedup" custom metric across
	// the run — the interval-sampling subsystem's headline number,
	// surfaced at the top level so trackers don't need to know which
	// benchmark reports it. Omitted when no sampled benchmark ran.
	SampledSpeedup float64 `json:"sampled_speedup,omitempty"`
	// ConfigsPerSecCore is the best mean configs/s/core across the
	// BenchmarkBatchSweep batch sizes — the batch kernel's headline
	// sweep throughput on one core. BatchSpeedup is its ratio over the
	// b=1 (lockstep off) sub-benchmark. Both omitted when the batch
	// sweep didn't run.
	ConfigsPerSecCore float64 `json:"configs_per_sec_core,omitempty"`
	BatchSpeedup      float64 `json:"batch_speedup,omitempty"`
}

func main() {
	commit := flag.String("commit", "", "commit hash to stamp into the report")
	baseline := flag.String("baseline", "", "earlier BENCH_*.json to compare configs_per_sec_core against (one line on stderr)")
	maxRegress := flag.Float64("max-regress", 0, "with -baseline: exit nonzero if configs_per_sec_core regressed more than this percent (0 = report only)")
	flag.Parse()

	rep, err := readReport(os.Stdin)
	if err != nil {
		fatal(err)
	}
	rep.Commit = *commit

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *baseline != "" {
		if err := compareBaseline(rep, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
	}
}

// readReport builds a report from `go test -bench` output, stamped
// with the host that produced it.
func readReport(r io.Reader) (report, error) {
	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Host:      hostInfo{NumCPU: runtime.NumCPU()},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.Host.CPU = strings.TrimSpace(cpu)
		}
		if s, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, s)
			rep.Host.GOMAXPROCS = 1
			if n, err := strconv.Atoi(lastDashPart(strings.Fields(line)[0])); err == nil {
				rep.Host.GOMAXPROCS = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("no benchmark result lines found on stdin")
	}
	rep.SampledSpeedup = sampledSpeedup(rep.Benchmarks)
	rep.ConfigsPerSecCore, rep.BatchSpeedup = batchMetrics(rep.Benchmarks)
	return rep, nil
}

// batchMetrics derives the batch kernel's headline numbers from the
// BenchmarkBatchSweep sub-benchmarks: the best per-batch-size mean of
// the configs/s/core metric, and its ratio over the b=1 mean. Repeated
// -count=N runs of one batch size average before the comparison, so
// the speedup is means-over-means, not a lucky single pairing.
func batchMetrics(samples []sample) (cps, speedup float64) {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, s := range samples {
		rest, ok := strings.CutPrefix(s.Name, "BenchmarkBatchSweep/b=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		v, ok := s.Metrics["configs/s/core"]
		if !ok {
			continue
		}
		sums[n] += v
		counts[n]++
	}
	for n, c := range counts {
		if mean := sums[n] / float64(c); mean > cps {
			cps = mean
		}
	}
	if c := counts[1]; c > 0 && cps > 0 {
		if base := sums[1] / float64(c); base > 0 {
			speedup = cps / base
		}
	}
	return cps, speedup
}

// compareBaseline prints one line per benchmark's ns/op and one per
// headline metric comparing rep against an earlier report on stderr. A metric absent on either side —
// baselines written before PR 8 predate configs_per_sec_core entirely,
// and partial -bench patterns can skip the batch sweep — is skipped
// with a one-line notice naming the missing side, and is never an
// error, whatever -max-regress says: there is no regression to measure
// without both numbers. Only configs_per_sec_core gates. An unreadable
// or unparsable baseline, or one recorded on a different host (a
// different fingerprint, or none), is a hard error when gating (the
// gate cannot run blind) and a notice in report-only mode.
func compareBaseline(rep report, path string, maxRegress float64) error {
	from := path
	var base report
	data, err := os.ReadFile(path)
	if err == nil {
		if jerr := json.Unmarshal(data, &base); jerr != nil {
			err = fmt.Errorf("parsing baseline %s: %w", path, jerr)
		}
	}
	if err != nil {
		if maxRegress > 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: baseline comparison skipped: %v\n", err)
		return nil
	}
	if base.Commit != "" {
		from = base.Commit
	}
	if h, bh := rep.fingerprint(), base.fingerprint(); h != bh {
		err := fmt.Errorf("baseline %s comes from a different host (%s; this run: %s): timings do not compare", from, bh, h)
		if maxRegress > 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: comparison refused: %v\n", err)
		return nil
	}

	for _, line := range nsPerOpDeltas(rep, base) {
		fmt.Fprintf(os.Stderr, "benchjson: %s at %s\n", line, from)
	}

	// compare reports one metric's delta, or skips it with the reason.
	// Metrics neither side reports stay silent — three "skipped" lines
	// for a run that never had the batch sweep is noise, not signal.
	compare := func(name string, cur, old float64) (delta float64, ok bool) {
		switch {
		case cur == 0 && old == 0:
			return 0, false
		case old == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s comparison vs %s skipped (baseline predates the metric)\n", name, from)
			return 0, false
		case cur == 0:
			fmt.Fprintf(os.Stderr, "benchjson: %s comparison vs %s skipped (this run did not report it)\n", name, from)
			return 0, false
		}
		delta = 100 * (cur - old) / old
		fmt.Fprintf(os.Stderr, "benchjson: %s %.2f vs %.2f at %s (%+.1f%%)\n", name, cur, old, from, delta)
		return delta, true
	}
	compare("sampled_speedup", rep.SampledSpeedup, base.SampledSpeedup)
	compare("batch_speedup", rep.BatchSpeedup, base.BatchSpeedup)
	if delta, ok := compare("configs_per_sec_core", rep.ConfigsPerSecCore, base.ConfigsPerSecCore); ok && maxRegress > 0 && delta < -maxRegress {
		return fmt.Errorf("configs_per_sec_core regressed %.1f%% (limit %.1f%%) vs %s", -delta, maxRegress, from)
	}
	return nil
}

// nsPerOpDeltas renders, for every benchmark both reports ran, its
// mean ns/op in rep against the baseline's, in rep's order. The lines
// are informational: no ns/op change fails a run.
func nsPerOpDeltas(rep, base report) []string {
	cur, order := meanNsPerOp(rep.Benchmarks)
	old, _ := meanNsPerOp(base.Benchmarks)
	var lines []string
	for _, name := range order {
		o, ok := old[name]
		if !ok || o == 0 {
			continue
		}
		c := cur[name]
		lines = append(lines, fmt.Sprintf("%s %.0f ns/op vs %.0f (%+.1f%%)", name, c, o, 100*(c-o)/o))
	}
	return lines
}

// meanNsPerOp averages each benchmark's ns/op over its samples, and
// lists the names in order of first appearance.
func meanNsPerOp(samples []sample) (map[string]float64, []string) {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	var order []string
	for _, s := range samples {
		v, ok := s.Metrics["ns/op"]
		if !ok {
			continue
		}
		if counts[s.Name] == 0 {
			order = append(order, s.Name)
		}
		sums[s.Name] += v
		counts[s.Name]++
	}
	for name, c := range counts {
		sums[name] /= float64(c)
	}
	return sums, order
}

// fingerprint renders everything that identifies the report's host.
func (r report) fingerprint() string {
	if r.Host == (hostInfo{}) {
		return "no host recorded"
	}
	return fmt.Sprintf("cpu %q, %d CPUs, GOMAXPROCS %d, %s %s/%s",
		r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.GoVersion, r.GOOS, r.GOARCH)
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFullSimulation-8   42   27012345 ns/op   2000000 insts/sec   12345 B/op   378 allocs/op
//
// Lines that don't look like benchmark results (test output, figure
// tables, PASS/ok trailers) return ok=false.
func parseLine(line string) (sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return sample{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return sample{}, false
	}
	s := sample{
		// Strip the -GOMAXPROCS suffix so names are stable across machines.
		Name:       strings.TrimSuffix(fields[0], "-"+lastDashPart(fields[0])),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false
		}
		s.Metrics[fields[i+1]] = v
	}
	if len(s.Metrics) == 0 {
		return sample{}, false
	}
	return s, true
}

// sampledSpeedup averages the "sampled-speedup" metric over every
// sample that reports it, or returns 0 when none does.
func sampledSpeedup(samples []sample) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if v, ok := s.Metrics["sampled-speedup"]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// lastDashPart returns the text after the final '-' if it is numeric
// (the GOMAXPROCS suffix), or "" otherwise.
func lastDashPart(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	suffix := name[i+1:]
	if _, err := strconv.Atoi(suffix); err != nil {
		return ""
	}
	return suffix
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
