// Conformance slice for the level-wise Phase 3 finalizer, exercised through
// the full pipeline sequentially and with three workers (external test
// package: internal/oracle imports the packages levelwise builds on).
package levelwise_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

func TestLevelWiseOracleConformance(t *testing.T) {
	engines := []oracle.Engine{
		oracle.MineEngine(core.LevelWise, 0),
		oracle.MineEngine(core.LevelWise, 3),
	}
	for _, seed := range oracle.CommittedSeeds[:4] {
		if d := oracle.CheckSeed(seed, engines); d != nil {
			t.Fatalf("level-wise pipeline diverged from the oracle:\n%s", d)
		}
	}
}
