package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Report is a serializable summary of a mining run, for downstream tooling.
// Patterns are rendered with the supplied alphabet; border membership and
// the measured match of every frequent pattern are included when available.
type Report struct {
	MinMatch   float64         `json:"min_match"`
	Sequences  int             `json:"sequences"`
	SampleSize int             `json:"sample_size"`
	Scans      int             `json:"scans"`
	Frequent   []PatternReport `json:"frequent"`
	Phase      PhaseReport     `json:"phases"`
	// Degraded flags a run whose Phase 3 budget expired; Unresolved then
	// lists the patterns left ambiguous, with their Chernoff intervals.
	Degraded   bool               `json:"degraded,omitempty"`
	Unresolved []UnresolvedReport `json:"unresolved,omitempty"`
	// ResumedFrom and ScansSkipped describe a checkpoint-resumed run: the
	// phase the snapshot had recorded, and how many of Scans were skipped.
	ResumedFrom  int `json:"resumed_from,omitempty"`
	ScansSkipped int `json:"scans_skipped,omitempty"`
	// Telemetry is the run's metrics snapshot, present when the run was
	// configured with a telemetry.Metrics collector.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// UnresolvedReport is one still-ambiguous pattern of a degraded run: its
// true match lies within [sample_match-epsilon, sample_match+epsilon] at
// confidence 1-δ.
type UnresolvedReport struct {
	Pattern     string  `json:"pattern"`
	Key         string  `json:"key"`
	SampleMatch float64 `json:"sample_match"`
	Epsilon     float64 `json:"epsilon"`
}

// PatternReport is one frequent pattern.
type PatternReport struct {
	Pattern string  `json:"pattern"`
	Key     string  `json:"key"`
	K       int     `json:"k"`
	Length  int     `json:"length"`
	Border  bool    `json:"border"`
	Match   float64 `json:"match,omitempty"`
	// Source records how the pattern was confirmed: "sample" (accepted at
	// confidence 1-δ from Phase 2) or "probe" (measured exactly in Phase 3).
	Source string `json:"source"`
}

// PhaseReport carries per-phase statistics.
type PhaseReport struct {
	Phase1Millis float64 `json:"phase1_ms"`
	Phase2Millis float64 `json:"phase2_ms"`
	Phase3Millis float64 `json:"phase3_ms"`
	// Phase2Engine names the engine that ran Phase 2 (Result.Phase2Engine).
	Phase2Engine       string `json:"phase2_engine,omitempty"`
	SampleFrequent     int    `json:"sample_frequent"`
	SampleAmbiguous    int    `json:"sample_ambiguous"`
	ProbedPatterns     int    `json:"probed_patterns"`
	CandidatesPerLevel []int  `json:"candidates_per_level"`
	// Phase2LevelMillis is the wall time each Phase 2 lattice level took.
	Phase2LevelMillis []float64 `json:"phase2_level_ms,omitempty"`
	Truncated         bool      `json:"truncated"`
}

// NewReport assembles a Report from a mining result. alphabet may be nil,
// in which case patterns render with generic d<i> names. sequences is the
// database size (Result does not retain the Scanner).
func NewReport(res *Result, minMatch float64, sequences int, alphabet *pattern.Alphabet) (*Report, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil result")
	}
	rep := &Report{
		MinMatch:   minMatch,
		Sequences:  sequences,
		SampleSize: res.SampleSize,
		Scans:      res.Scans,
	}
	if res.Phase2 != nil {
		rep.Phase = PhaseReport{
			Phase1Millis:       float64(res.Phase1Time.Microseconds()) / 1000,
			Phase2Millis:       float64(res.Phase2Time.Microseconds()) / 1000,
			Phase3Millis:       float64(res.Phase3Time.Microseconds()) / 1000,
			Phase2Engine:       res.Phase2Engine,
			SampleFrequent:     res.Phase2.Frequent.Len(),
			SampleAmbiguous:    res.Phase2.Ambiguous.Len(),
			CandidatesPerLevel: res.Phase2.CandidatesPerLevel,
			Phase2LevelMillis:  res.Phase2.LevelMillis,
			Truncated:          res.Phase2.Truncated,
		}
	}
	if res.Phase3 != nil {
		rep.Phase.ProbedPatterns = res.Phase3.Probed
	}
	if res.Telemetry != nil {
		snap := res.Telemetry.Snapshot()
		snap.Retry = res.ScanStats
		rep.Telemetry = &snap
	}
	render := func(p pattern.Pattern) string {
		if alphabet != nil {
			return alphabet.Format(p)
		}
		return p.String()
	}
	rep.Degraded = res.Degraded
	rep.ResumedFrom = res.ResumedFrom
	rep.ScansSkipped = res.ScansSkipped
	for _, u := range res.Unresolved {
		rep.Unresolved = append(rep.Unresolved, UnresolvedReport{
			Pattern:     render(u.Pattern),
			Key:         u.Pattern.Key(),
			SampleMatch: u.SampleMatch,
			Epsilon:     u.Epsilon,
		})
	}
	for _, p := range res.Frequent.Patterns() {
		key := p.Key()
		pr := PatternReport{
			Pattern: render(p),
			Key:     key,
			K:       p.K(),
			Length:  p.Len(),
			Border:  res.Border.Contains(p),
			Source:  "sample",
		}
		if res.Phase3 != nil {
			if v, ok := res.Phase3.Exact[key]; ok {
				pr.Match = v
				pr.Source = "probe"
			}
		}
		if pr.Source == "sample" && res.Phase2 != nil {
			if v, ok := res.Phase2.Values[key]; ok {
				pr.Match = v
			}
		}
		rep.Frequent = append(rep.Frequent, pr)
	}
	// Borders first, then by descending match, for readable output.
	sort.SliceStable(rep.Frequent, func(a, b int) bool {
		if rep.Frequent[a].Border != rep.Frequent[b].Border {
			return rep.Frequent[a].Border
		}
		if rep.Frequent[a].Match != rep.Frequent[b].Match {
			return rep.Frequent[a].Match > rep.Frequent[b].Match
		}
		return rep.Frequent[a].Key < rep.Frequent[b].Key
	})
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
