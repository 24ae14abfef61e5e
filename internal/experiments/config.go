// Package experiments implements one runner per table and figure in the
// paper's evaluation (§3), printed by cmd/benchrunner. Every runner returns
// structured results so callers can render them as the paper's tables or
// assert on their shapes and counted cells in tests.
package experiments

import (
	"sync"

	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
)

// ToolkitKind selects which toolkit an agent is equipped with.
type ToolkitKind string

// The evaluated toolkits (paper §3.1).
const (
	BridgeScope ToolkitKind = "BridgeScope"
	PGMCP       ToolkitKind = "PG-MCP"
	PGMCPMinus  ToolkitKind = "PG-MCP-"
	PGMCPSmall  ToolkitKind = "PG-MCP-S"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives benchmark generation and every stochastic model choice.
	Seed int64
	// Sample takes every Nth task (1 or 0 = all tasks). Tests use larger
	// strides for speed; benchrunner uses 1.
	Sample int
}

func (c Config) sample() int {
	if c.Sample <= 1 {
		return 1
	}
	return c.Sample
}

// Models returns the two simulated models of §3.1 for this seed.
func Models(seed int64) []llm.Model {
	return []llm.Model{
		llm.NewSim(llm.GPT4o(), seed),
		llm.NewSim(llm.Claude4(), seed),
	}
}

// housing engines are immutable across runs (NL2ML tasks are read-only), so
// they are cached per (seed, rows).
var (
	houseMu    sync.Mutex
	houseCache = map[[2]int64]*sqldb.Engine{}
)

func housingEngine(seed int64, rows int) *sqldb.Engine {
	houseMu.Lock()
	defer houseMu.Unlock()
	key := [2]int64{seed, int64(rows)}
	if e, ok := houseCache[key]; ok {
		return e
	}
	e := nl2ml.BuildHouseEngine(seed, rows)
	houseCache[key] = e
	return e
}
