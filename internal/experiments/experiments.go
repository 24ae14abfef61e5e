package experiments

import (
	"fmt"

	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/tokens"
)

// BestAchievableCalls is the paper's lower bound for feasible tasks: one
// LLM call each for context retrieval, SQL execution, and result
// finalization (§3.2).
const BestAchievableCalls = 3.0

// Fig5aResult is one bar of Figure 5(a): average LLM calls per task for a
// (model, toolkit) pair, with the best-achievable reference.
type Fig5aResult struct {
	Model          string
	Toolkit        ToolkitKind
	AvgLLMCalls    float64
	BestAchievable float64
	Tasks          int
}

// Fig5a compares BridgeScope against PG-MCP⁻ (execute_sql only) on
// context retrieval, over the full BIRD-Ext suite under the administrator
// role (every task feasible).
func Fig5a(cfg Config) ([]Fig5aResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	tasks := sampleTasks(suite.Tasks, cfg.sample())
	var out []Fig5aResult
	for _, model := range Models(cfg.Seed) {
		for _, kind := range []ToolkitKind{BridgeScope, PGMCPMinus} {
			var calls []float64
			for _, t := range tasks {
				o, err := runBirdTask(suite, birdext.RoleAdmin, kind, model, t)
				if err != nil {
					return nil, err
				}
				calls = append(calls, float64(o.Metrics.LLMCalls))
			}
			out = append(out, Fig5aResult{
				Model: model.Name(), Toolkit: kind,
				AvgLLMCalls:    mean(calls),
				BestAchievable: BestAchievableCalls,
				Tasks:          len(tasks),
			})
		}
	}
	return out, nil
}

// Fig5bResult is one bar of Figure 5(b): task accuracy.
type Fig5bResult struct {
	Model    string
	Toolkit  ToolkitKind
	Accuracy float64
	Tasks    int
}

// Fig5b compares task accuracy of the fine-grained SQL tools against the
// single execute_sql tool (admin role; modularization must not cost
// accuracy).
func Fig5b(cfg Config) ([]Fig5bResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	tasks := sampleTasks(suite.Tasks, cfg.sample())
	var out []Fig5bResult
	for _, model := range Models(cfg.Seed) {
		for _, kind := range []ToolkitKind{BridgeScope, PGMCP} {
			correct := 0
			for _, t := range tasks {
				o, err := runBirdTask(suite, birdext.RoleAdmin, kind, model, t)
				if err != nil {
					return nil, err
				}
				if o.Correct {
					correct++
				}
			}
			out = append(out, Fig5bResult{
				Model: model.Name(), Toolkit: kind,
				Accuracy: float64(correct) / float64(len(tasks)),
				Tasks:    len(tasks),
			})
		}
	}
	return out, nil
}

// Fig5cResult is one bar of Figure 5(c): the transaction trigger ratio on
// write tasks.
type Fig5cResult struct {
	Model        string
	Toolkit      ToolkitKind
	TriggerRatio float64
	Tasks        int
}

// Fig5c measures how often agents correctly initiate transactions for
// database modifications (admin role, write tasks).
func Fig5c(cfg Config) ([]Fig5cResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	tasks := sampleTasks(suite.WriteTasks, cfg.sample())
	var out []Fig5cResult
	for _, model := range Models(cfg.Seed) {
		for _, kind := range []ToolkitKind{BridgeScope, PGMCP} {
			triggered := 0
			for _, t := range tasks {
				o, err := runBirdTask(suite, birdext.RoleAdmin, kind, model, t)
				if err != nil {
					return nil, err
				}
				if o.Metrics.TransactionUsed {
					triggered++
				}
			}
			out = append(out, Fig5cResult{
				Model: model.Name(), Toolkit: kind,
				TriggerRatio: float64(triggered) / float64(len(tasks)),
				Tasks:        len(tasks),
			})
		}
	}
	return out, nil
}

// Cell identifies one (role, task type) combination of §3.3.
type Cell struct {
	Role  birdext.Role
	Write bool
}

// String renders the cell in the paper's "(A, read)" notation.
func (c Cell) String() string {
	letter := map[birdext.Role]string{
		birdext.RoleAdmin: "A", birdext.RoleNormal: "N", birdext.RoleIrrelevant: "I",
	}[c.Role]
	kind := "read"
	if c.Write {
		kind = "write"
	}
	return fmt.Sprintf("(%s, %s)", letter, kind)
}

// Feasible reports whether the cell's tasks are feasible for its role.
func (c Cell) Feasible() bool { return birdext.Feasible(c.Role, c.Write) }

// Cells lists the five evaluated combinations; (N, read) is omitted as in
// the paper because it matches (A, read).
var Cells = []Cell{
	{birdext.RoleAdmin, false},
	{birdext.RoleAdmin, true},
	{birdext.RoleNormal, true},
	{birdext.RoleIrrelevant, false},
	{birdext.RoleIrrelevant, true},
}

// CellResult is one (model, toolkit, cell) measurement backing Figure 6 and
// Table 1.
type CellResult struct {
	Model          string
	Toolkit        ToolkitKind
	Cell           Cell
	AvgLLMCalls    float64
	AvgTokens      float64
	BestAchievable float64
	Tasks          int
}

// bestAchievableFor estimates the minimum LLM calls per cell: 3 for
// feasible tasks; for infeasible ones, 1 when infeasibility is visible from
// the tool list ((N, write)) and 2 when it requires a schema look ((I, *)).
func bestAchievableFor(c Cell) float64 {
	if c.Feasible() {
		return BestAchievableCalls
	}
	if c.Role == birdext.RoleNormal && c.Write {
		return 1
	}
	return 2
}

// Fig6Table1 runs the privilege-aware tooling experiment: average LLM calls
// (Figure 6) and token usage (Table 1) for every cell and toolkit.
func Fig6Table1(cfg Config) ([]CellResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	var out []CellResult
	for _, model := range Models(cfg.Seed) {
		for _, kind := range []ToolkitKind{BridgeScope, PGMCP} {
			for _, cell := range Cells {
				pool := suite.ReadTasks
				if cell.Write {
					pool = suite.WriteTasks
				}
				tasks := sampleTasks(pool, cfg.sample())
				var calls, toks []float64
				for _, t := range tasks {
					o, err := runBirdTask(suite, cell.Role, kind, model, t)
					if err != nil {
						return nil, err
					}
					calls = append(calls, float64(o.Metrics.LLMCalls))
					toks = append(toks, float64(o.Metrics.TotalTokens()))
				}
				out = append(out, CellResult{
					Model: model.Name(), Toolkit: kind, Cell: cell,
					AvgLLMCalls:    mean(calls),
					AvgTokens:      mean(toks),
					BestAchievable: bestAchievableFor(cell),
					Tasks:          len(tasks),
				})
			}
		}
	}
	return out, nil
}

// Table2Result is one row group of Table 2: the proxy-mechanism experiment
// on NL2ML.
type Table2Result struct {
	Model          string
	Toolkit        ToolkitKind
	CompletionRate float64
	AvgTokens      float64 // over completed runs; NaN-free: 0 when none
	AvgLLMCalls    float64 // over completed runs
	Tasks          int
}

// Table2 evaluates the proxy mechanism: completion rate, token usage and
// LLM calls on NL2ML for BridgeScope, PG-MCP (full table), and PG-MCP-S
// (20-row reduction).
func Table2(cfg Config) ([]Table2Result, error) {
	tasks := sampleTasks(nl2ml.GenerateTasks(), cfg.sample())
	var out []Table2Result
	for _, model := range Models(cfg.Seed) {
		for _, kind := range []ToolkitKind{BridgeScope, PGMCP, PGMCPSmall} {
			completed := 0
			var toks, calls []float64
			for _, t := range tasks {
				o, err := runNL2MLTask(cfg, kind, model, t)
				if err != nil {
					return nil, err
				}
				if o.Correct {
					completed++
					toks = append(toks, float64(o.Metrics.TotalTokens()))
					calls = append(calls, float64(o.Metrics.LLMCalls))
				}
			}
			out = append(out, Table2Result{
				Model: model.Name(), Toolkit: kind,
				CompletionRate: float64(completed) / float64(len(tasks)),
				AvgTokens:      mean(toks),
				AvgLLMCalls:    mean(calls),
				Tasks:          len(tasks),
			})
		}
	}
	return out, nil
}

// IdealizedResult quantifies §3.4(3): even an agent with an unbounded
// context window must move the full table through its context at least
// twice, costing two orders of magnitude more tokens than BridgeScope.
type IdealizedResult struct {
	TableTokens          int     // one rendering of the full house table
	IdealizedAgentTokens int     // two transfers, the paper's lower bound
	BridgeScopeTokens    float64 // measured average (GPT-4o profile)
	Ratio                float64
}

// IdealizedTransfer computes the idealized-agent lower bound against
// BridgeScope's measured cost.
func IdealizedTransfer(cfg Config) (*IdealizedResult, error) {
	engine := housingEngine(cfg.Seed, nl2ml.FullRows)
	root := engine.NewSession("root")
	res, err := root.Exec("SELECT " + joinCols() + " FROM house")
	if err != nil {
		return nil, err
	}
	tableTokens := tokens.Count(res.Text())

	// BridgeScope's measured average over a slice of NL2ML tasks.
	tasks := sampleTasks(nl2ml.GenerateTasks(), cfg.sample())
	model := Models(cfg.Seed)[0]
	var toks []float64
	for _, t := range tasks {
		o, err := runNL2MLTask(cfg, BridgeScope, model, t)
		if err != nil {
			return nil, err
		}
		if o.Correct {
			toks = append(toks, float64(o.Metrics.TotalTokens()))
		}
	}
	bs := mean(toks)
	ideal := 2 * tableTokens
	ratio := 0.0
	if bs > 0 {
		ratio = float64(ideal) / bs
	}
	return &IdealizedResult{
		TableTokens:          tableTokens,
		IdealizedAgentTokens: ideal,
		BridgeScopeTokens:    bs,
		Ratio:                ratio,
	}, nil
}

func joinCols() string {
	cols := append(append([]string{}, nl2ml.AllFeatures...), nl2ml.TargetColumn)
	out := ""
	for i, c := range cols {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return out
}
