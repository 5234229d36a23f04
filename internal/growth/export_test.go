package growth

import (
	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/pattern"
)

// MineCountingPins is Mine that also reports how many cache evictions hit
// a projection whose node was still being processed.
func MineCountingPins(c compat.Source, sample [][]pattern.Symbol, cfg Config) (*miner.Result, int64, error) {
	e, err := newEngine(c, sample, cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := e.mine()
	return res, e.pinnedEvictions.Load(), err
}
