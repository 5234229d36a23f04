package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// def names a metric and its unit; BENCHMARK.json lists the same pairs.
type def struct{ name, unit string }

// maxLevels is the number of lattice levels miner.level_s.<k> reports: the
// deepest max_len any workload mines.
const maxLevels = 8

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"mine_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run prints. A layer the workload does
// not exercise reads 0. Counts and times are per timed operation, except
// the stream.* counts and seqdb.expired, which are totals over the timed
// rounds.
var perLayer = func() []def {
	d := []def{
		{"seqdb.write_s", "s"},
		{"seqdb.passes", "count"},
		{"seqdb.bytes_read", "bytes"},
		{"seqdb.pass_s", "s"},
		{"seqdb.storage_share", "ratio"},
		{"seqdb.expired", "count"},
		{"core.phase1_s", "s"},
		{"core.phase2_s", "s"},
		{"core.phase3_s", "s"},
		{"core.other_s", "s"},
		{"miner.levels", "count"},
		{"miner.candidates", "count"},
		{"miner.peak_candidates", "count"},
	}
	for k := 1; k <= maxLevels; k++ {
		d = append(d, def{fmt.Sprintf("miner.level_s.%d", k), "s"})
	}
	return append(d, []def{
		{"match.kernel_windows", "count"},
		{"match.kernel_extended", "count"},
		{"match.kernel_scratch", "count"},
		{"match.kernel_peak_mb", "MiB"},
		{"match.kernel_evicted", "count"},
		{"match.kernel_fallbacks", "count"},
		{"match.kernel_reuse", "ratio"},
		{"growth.nodes", "count"},
		{"growth.prunes", "count"},
		{"growth.peak_mb", "MiB"},
		{"border.ambiguous", "count"},
		{"border.probed", "count"},
		{"border.probe_scans", "count"},
		{"border.probe_batch_mean", "count"},
		{"border.settled_per_probe", "ratio"},
		{"checkpoint.writes", "count"},
		{"checkpoint.mb", "MiB"},
		{"checkpoint.s", "s"},
		{"jobs.submit_s", "s"},
		{"jobs.queue_s", "s"},
		{"jobs.run_s", "s"},
		{"jobs.notify_s", "s"},
		{"jobs.result_s", "s"},
		{"jobs.result_kb", "KiB"},
		{"jobs.append_s", "s"},
		{"jobs.append_p95_s", "s"},
		{"jobs.append_kb", "KiB"},
		{"stream.remines", "count"},
		{"stream.border_shifts", "count"},
		{"stream.reprobes_avoided", "count"},
		{"stream.scans", "count"},
		{"stream.remine_ratio", "ratio"},
		{"telemetry.overhead", "ratio"},
		{"proc.cpu_s", "s"},
		{"proc.cpu_util", "ratio"},
		{"proc.alloc_mb", "MiB"},
		{"proc.gc_cycles", "count"},
		{"proc.steal_s", "s"},
		{"trace.uncovered", "ratio"},
	}...)
}()

// outcome is what a workload hands back to run.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layers       map[string]float64
}

func newOutcome() *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range perLayer {
		o.layers[d.name] = 0
	}
	return o
}

// check counts one attempted operation and records err as its failure.
func (o *outcome) check(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

const mib = 1 << 20

// procWindow brackets the timed operations with process-level counters.
type procWindow struct {
	wall  time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	steal float64
}

func openWindow() procWindow {
	w := procWindow{cpu: cpuTime(), steal: stealSeconds()}
	runtime.ReadMemStats(&w.mem)
	w.wall = time.Now()
	return w
}

// close records the proc.* layer metrics for ops operations and the peak
// resident memory.
func (w procWindow) close(out *outcome, ops int) {
	wall := time.Since(w.wall)
	cpu := cpuTime() - w.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(ops)
	out.layers["proc.cpu_s"] = cpu.Seconds() / n
	out.layers["proc.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	out.layers["proc.alloc_mb"] = float64(mem.TotalAlloc-w.mem.TotalAlloc) / mib / n
	out.layers["proc.gc_cycles"] = float64(mem.NumGC-w.mem.NumGC) / n
	out.layers["proc.steal_s"] = stealSeconds() - w.steal
	out.e2e["peak_rss_mb"] = peakRSS()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB (maxrss is in KiB on
// Linux).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealSeconds reads the host's cumulative steal time from /proc/stat (0
// where the file or field is absent). It explains noisy runs; it is not a
// cost of the program.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / 100 // USER_HZ
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
