// Command perfbench is the repository's benchmark. It runs one
// workload against the real stack for a fixed time, checks every result
// it got back, and prints the metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	sweep  one runner.Run over a design grid with the lockstep batch kernel
//	jobs   one closed-loop HTTP client against a single service node
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, measured by timing calls into each package's
// exported functions from outside. See README.md for every metric.
//
// Build and run it through run.sh, which keeps its build cache inside
// the checkout:
//
//	bash perfbench/run.sh --workload jobs --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	o := defaultOptions()
	o.started = time.Now()
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep or jobs")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 45, "how long the timed part measures")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "checkout root: fingerprinted, and spans are written under its .bench_build")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the checkout was made from, for the host stamp")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	o.duration = time.Duration(secs) * time.Second
	o.trace = trace == 1
	o.spanDir = o.root + "/.bench_build/spans"

	rep, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed")
		os.Exit(1)
	}
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
