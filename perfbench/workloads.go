package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// workloads maps each workload name to its runner. BENCHMARK.json lists
// disk-probe, long-low and ingest-follow. ingest-expire runs on request
// only: on a streaming defect its follower mines stale windows and fails
// verification (see README.md), and a benchmark workload must not fail.
var workloads = map[string]func(options) (*outcome, error){
	"disk-probe":    runDiskProbe,
	"long-low":      runLongLow,
	"ingest-follow": func(o options) (*outcome, error) { return runIngest(o, 0) },
	"ingest-expire": func(o options) (*outcome, error) { return runIngest(o, ingestWindow) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opCount fixes a run's operation count from the nominal run length and the
// nominal cost of one operation. The list never depends on elapsed time.
func opCount(seconds int, nominal float64) int {
	return max(2, int(math.Round(float64(seconds)/nominal)))
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// repeatSetup runs setup setups times, tearing down all but the last
// instance, and returns that instance with the median set-up time in
// seconds. Every set-up warms up with operation 0, so each does the same
// work; timed operations are numbered from 1.
func repeatSetup[T any](setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < setups; i++ {
		settle()
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d took %.3f s\n", i+1, times[i])
		if i == setups-1 {
			last = inst
			break
		}
		if err := teardown(inst); err != nil {
			return last, 0, fmt.Errorf("tear-down %d: %w", i+1, err)
		}
	}
	return last, median(times), nil
}

// settle collects the previous operation's garbage before the next one
// starts, outside its timing, so each operation begins from the same heap
// — as a one-mine-per-process lspmine run does — and no operation pays for
// its predecessor's garbage.
func settle() { runtime.GC() }

// runDir is the run's private scratch directory under o.dir.
func runDir(o options, name string) string {
	return filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()), name)
}

func writeMatrix(path string, c *compat.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func secs(ms float64) float64 { return ms / 1000 }

// phaseTimes returns Phase 1–3 wall times from a telemetry snapshot.
func phaseTimes(s *telemetry.Snapshot) [3]time.Duration {
	var out [3]time.Duration
	for _, p := range s.Phases {
		if p.Phase >= 1 && p.Phase <= 3 {
			out[p.Phase-1] = time.Duration(p.Millis * float64(time.Millisecond))
		}
	}
	return out
}

// snapshotValues maps the per-layer metrics a telemetry snapshot carries to
// their values for one operation.
func snapshotValues(s *telemetry.Snapshot) map[string]float64 {
	return map[string]float64{
		"seqdb.passes":            float64(s.TotalScans),
		"seqdb.bytes_read":        float64(s.TotalBytes),
		"miner.levels":            float64(s.Levels),
		"miner.candidates":        float64(s.Candidates),
		"miner.peak_candidates":   float64(s.PeakCandidates),
		"match.kernel_windows":    float64(s.KernelWindows),
		"match.kernel_extended":   float64(s.KernelExtended),
		"match.kernel_scratch":    float64(s.KernelScratch),
		"match.kernel_peak_mb":    float64(s.KernelPeakBytes) / mib,
		"match.kernel_evicted":    float64(s.KernelEvicted),
		"match.kernel_fallbacks":  float64(s.KernelFallbacks),
		"growth.nodes":            float64(s.GrowthNodes),
		"growth.prunes":           float64(s.GrowthPrunes),
		"growth.peak_mb":          float64(s.GrowthPeakBytes) / mib,
		"border.ambiguous":        float64(s.Ambiguous),
		"border.probed":           float64(s.Probed),
		"border.probe_scans":      float64(s.ProbeScans),
		"border.probe_batch_mean": s.ProbeBatch.Mean,
		"checkpoint.writes":       float64(s.CheckpointWrites),
		"checkpoint.mb":           float64(s.CheckpointBytes) / mib,
		"checkpoint.s":            secs(s.CheckpointMillis),
	}
}

// addSnapshot adds one operation's telemetry to the layer sums.
func addSnapshot(l map[string]float64, s *telemetry.Snapshot) {
	for name, v := range snapshotValues(s) {
		l[name] += v
	}
}

// perOp turns the sums addSnapshot built over ops operations into means and
// derives the ratios.
func perOp(l map[string]float64, ops int) {
	l["border.settled_per_probe"] = ratio(l["border.ambiguous"], l["border.probed"])
	ext, scratch := l["match.kernel_extended"], l["match.kernel_scratch"]
	l["match.kernel_reuse"] = ratio(ext, ext+scratch)
	for name := range snapshotValues(&telemetry.Snapshot{}) {
		l[name] /= float64(ops)
	}
}

// addLevels adds per-level Phase 2 times (milliseconds) to the
// miner.level_s.<k> sums.
func addLevels(l map[string]float64, levelMillis []float64, scale float64) {
	for k, ms := range levelMillis {
		if k < maxLevels {
			l[fmt.Sprintf("miner.level_s.%d", k+1)] += secs(ms) * scale
		}
	}
}

// barePass times one pass over the store with a no-op consumer, the median
// of three.
func barePass(db seqdb.Scanner) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// exhaustive is core.Exhaustive — one exact scan per lattice level — with
// its valuer spread over GOMAXPROCS workers; the values are bit-identical
// for every worker count, and the reference takes half the wall time.
func exhaustive(db seqdb.Scanner, c compat.Source, minMatch float64, opts miner.Options) (*miner.Result, error) {
	return miner.Exhaustive(c.Size(), miner.ParallelMatchDBValuer(db, c, runtime.GOMAXPROCS(0)), minMatch, opts)
}

// finishTrace runs the coverage check and writes the trace artifact.
func finishTrace(o options, out *outcome, tr *tracer) error {
	uncovered, covErr := checkCoverage(tr.spans)
	out.layers["trace.uncovered"] = uncovered
	path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	err := writeArtifact(path, &traceArtifact{
		Workload: o.workload, Seed: o.seed, Env: environment(),
		Tolerance: coverageTolerance, Uncovered: uncovered,
		Layers: layerTable(tr.spans), Metrics: out.layers, Spans: tr.spans,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return covErr
}
