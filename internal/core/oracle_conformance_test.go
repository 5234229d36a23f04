// Conformance slice kept next to the pipeline: a few committed corpus seeds
// cross-checked against the brute-force oracle on every `go test ./...`.
// The full corpus (all seeds, all engines) runs via cmd/lspverify in CI.
// External test package: internal/oracle imports core, so the check cannot
// live inside package core.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

func TestPipelineOracleConformance(t *testing.T) {
	engines := []oracle.Engine{
		oracle.MineEngine(core.BorderCollapsing, 2),
		oracle.MineEngine(core.LevelWise, 0),
		oracle.ExhaustiveEngine(),
	}
	for _, seed := range oracle.CommittedSeeds[:4] {
		if d := oracle.CheckSeed(seed, engines); d != nil {
			t.Fatalf("pipeline diverged from the oracle:\n%s", d)
		}
	}
}
