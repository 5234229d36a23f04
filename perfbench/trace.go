package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// coverageTolerance is the largest share of an operation's — or of any
// span with children — wall time that its child spans may leave uncovered
// before a traced run fails: time the benchmark cannot attribute to a layer.
const coverageTolerance = 0.05

// span is one timed interval of a traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // operation index; -1 for set-up work
	Name   string `json:"name"`   // "<layer>.<call>", or "op" for an operation root
	// Start and End are seconds since the tracer's epoch.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Derived spans are placed from durations or timestamps the program
	// reported (core.Result phase times, jobs.Status timestamps) rather than
	// timed around a call.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer returns the module a span belongs to: the name up to its first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory; a nil tracer records nothing, so untraced
// runs pay one nil check per call. One goroutine uses it.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.epoch).Seconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(time.Now())})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.at(time.Now())
}

// derived records a span placed from reported times; it returns its id.
func (t *tracer) derived(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(end), Derived: true})
	return id
}

// sequence lays derived child spans end to end from start, one per
// duration, and returns their ids.
func (t *tracer) sequence(parent, op int, start time.Time, names []string, durs []time.Duration) []int {
	ids := make([]int, len(names))
	for i, name := range names {
		end := start.Add(durs[i])
		ids[i] = t.derived(name, parent, op, start, end)
		start = end
	}
	return ids
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (their union, clipped to the span).
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals inside parent.
func covered(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of the per-layer table: time inside the layer's
// spans, the part no child span covers, and the span count.
type layerRow struct {
	Layer  string  `json:"layer"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Spans  int     `json:"spans"`
}

// layerTable aggregates spans by layer, sorted by self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			rows[s.layer()] = r
		}
		r.TotalS += s.dur()
		r.SelfS += self[s.ID]
		r.Spans++
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// checkCoverage returns the largest uncovered share among operation roots
// (spans named "op") and spans with children, and an error when it exceeds
// coverageTolerance. Checking every parent, not only the roots, keeps a
// missing or misplaced span deeper in the tree from passing unseen.
func checkCoverage(spans []span) (float64, error) {
	self := selfTimes(spans)
	parents := map[int]bool{}
	for _, s := range spans {
		parents[s.Parent] = true
	}
	worst, ops := 0.0, 0
	var worstSpan span
	for _, s := range spans {
		if s.Name == "op" {
			ops++
		} else if !parents[s.ID] {
			continue
		}
		if s.dur() <= 0 {
			continue
		}
		if share := self[s.ID] / s.dur(); share > worst {
			worst, worstSpan = share, s
		}
	}
	if ops == 0 {
		return 0, fmt.Errorf("trace holds no operation spans")
	}
	if worst > coverageTolerance {
		return worst, fmt.Errorf("op %d: child spans leave %.1f%% of its %s span uncovered (tolerance %.0f%%)",
			worstSpan.Op, 100*worst, worstSpan.Name, 100*coverageTolerance)
	}
	return worst, nil
}

// traceArtifact is the JSON file a traced run leaves behind.
type traceArtifact struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Env       map[string]any     `json:"env"`
	Tolerance float64            `json:"coverage_tolerance"`
	Uncovered float64            `json:"worst_uncovered_share"`
	Layers    []layerRow         `json:"layers"`
	Metrics   map[string]float64 `json:"per_layer_metrics"`
	Spans     []span             `json:"spans"`
}

func writeArtifact(path string, a *traceArtifact) error {
	data, err := json.MarshalIndent(a, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
