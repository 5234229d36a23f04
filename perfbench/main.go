// Command perfbench is the repository's benchmark. It runs one workload per
// process — a fixed list of mining operations derived from the workload seed,
// driven by one closed-loop client — checks every result against an exact
// reference, and prints the measured metrics as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload disk-probe --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it times the same operations with spans around its own calls
// into each module and prints the per-layer metrics instead, writing the span
// tree and the layer table to a JSON artifact under .bench_build/perfbench.
//
// The workloads (see workloads.go) are:
//
//   - disk-probe: mining jobs against a disk-resident database through the
//     lspserve daemon (internal/jobs behind its HTTP handler);
//   - long-low: deep, low-threshold mines through core.MineContext over
//     seqdb.OpenFile, the library path lspmine takes;
//   - ingest-follow: HTTP appends into a live log while a core.Stream
//     follower mines it, the library path of lspmine -follow.
//
// A fourth workload, ingest-expire, runs on request only: ingest-follow with
// a writer-owned sliding window, which fails verification on a streaming
// defect (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

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

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir holds scratch stores, cached references and trace artifacts.
	dir string
	// scale shrinks every workload's sizes for smoke tests (1 = full size).
	scale float64
}

func main() {
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: inputs and operation seeds derive from it")
	flag.IntVar(&o.seconds, "seconds", 25, "nominal measured seconds; fixes the operation count, never bounds it")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores, cached references and trace artifacts")
	flag.Parse()
	o.trace = *trace == 1
	if (*trace != 0 && *trace != 1) || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its report.
func run(o options) (*report, error) {
	runWorkload, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	env := environment()
	envLine, _ := json.Marshal(env)
	fmt.Printf("perfbench: workload %s seed %d env %s\n", o.workload, o.seed, envLine)

	res, err := runWorkload(o)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", e)
	}
	catalog, values := endToEnd, res.e2e
	if o.trace {
		catalog, values = perLayer, res.layers
	}
	for _, d := range catalog {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return rep, nil
}

// environment records what a reader needs to compare runs across hosts.
func environment() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
