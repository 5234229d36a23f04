// lspverify is the conformance gate for the mining stack: it replays the
// committed differential corpus and a deterministic batch of fresh seeds,
// cross-checking the 20 engines of oracle.Battery (core.Mine under both
// Phase 2 engines, several worker counts and the sparse matrix form,
// sharded and remote Phase 3, the border-collapsing and level-wise
// finalizers, the streaming pipeline, the exhaustive miner, Max-Miner, and
// both support miners) against the brute-force oracle of internal/oracle,
// plus the metamorphic property harness. It exits nonzero on any
// divergence, printing the failing seed and a minimized reproduction.
//
// Usage:
//
//	lspverify [-seeds N] [-base B] [-committed] [-properties] [-v]
//
// Fresh seeds are derived deterministically from -base, so a given flag set
// always runs the same cases; point -base at a new value (e.g. a date) to
// explore new ground, and promote any failing seed into
// oracle.CommittedSeeds once fixed.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/oracle"
)

func main() {
	seeds := flag.Int("seeds", 16, "number of fresh seeds to run (derived from -base)")
	base := flag.Int64("base", 20260806, "base for deriving fresh seeds deterministically")
	committed := flag.Bool("committed", true, "also replay the committed regression corpus")
	seed := flag.Int64("seed", 0, "run exactly this one seed (the repro mode printed by a divergence)")
	properties := flag.Bool("properties", true, "run the metamorphic property harness per seed")
	verbose := flag.Bool("v", false, "print one line per passing seed")
	flag.Parse()

	var all []int64
	if *seed != 0 {
		all = []int64{*seed}
	} else {
		if *committed {
			all = append(all, oracle.CommittedSeeds...)
		}
		rng := rand.New(rand.NewSource(*base))
		for i := 0; i < *seeds; i++ {
			all = append(all, rng.Int63())
		}
	}
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "lspverify: nothing to run (use -seeds or -committed)")
		os.Exit(2)
	}

	failures := oracle.Verify(os.Stdout, oracle.VerifyOptions{
		Seeds:      all,
		Properties: *properties,
		Verbose:    *verbose,
	})
	if failures > 0 {
		os.Exit(1)
	}
}
