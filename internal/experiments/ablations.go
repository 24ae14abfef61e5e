package experiments

import (
	"context"
	"fmt"
	"time"

	"bridgescope/internal/agent"
	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mltools"
	"bridgescope/internal/task"
	"bridgescope/internal/tokens"
)

// AblationResult is one measured design-choice comparison.
type AblationResult struct {
	Name     string
	Value    float64 // with the design choice ablated
	Baseline float64 // the shipped configuration
	Unit     string
	Note     string
}

// Ablations measures the design choices DESIGN.md calls out: privilege
// annotations, the adaptive schema threshold, get_value top-k retrieval,
// and proxy producer parallelism.
func Ablations(cfg Config) ([]AblationResult, error) {
	var out []AblationResult

	a1, err := ablatePrivilegeAnnotations(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, a1)

	a2, err := ablateSchemaThreshold(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, a2)

	a3, err := ablateValueTopK(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, a3)

	a4, err := ablateProxyParallelism(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, a4)

	return out, nil
}

// runBirdPolicy runs a BIRD-Ext task through BridgeScope with a custom
// policy (shared by ablations).
func runBirdPolicy(suite *birdext.Suite, role birdext.Role, policy core.Policy, model llm.Model, t *task.Task) (*agent.Metrics, error) {
	engine := suite.BuildEngine()
	user := birdext.SetupRole(engine, role)
	conn := core.NewSQLDBConn(engine, user)
	tk := core.New(conn, policy)
	a := &agent.Agent{Model: model, Client: tk.Client(), SystemPrompt: tk.SystemPrompt()}
	return a.Run(context.Background(), t)
}

// ablatePrivilegeAnnotations compares LLM calls on infeasible (I, read)
// tasks with and without "-- Access" annotations: without them the model
// only learns about missing privileges from execution errors.
func ablatePrivilegeAnnotations(cfg Config) (AblationResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	tasks := sampleTasks(suite.ReadTasks, maxInt(cfg.sample(), 5))
	model := Models(cfg.Seed)[0]
	var with, without []float64
	for _, t := range tasks {
		m1, err := runBirdPolicy(suite, birdext.RoleIrrelevant, core.Policy{}, model, t)
		if err != nil {
			return AblationResult{}, err
		}
		with = append(with, float64(m1.LLMCalls))
		m2, err := runBirdPolicy(suite, birdext.RoleIrrelevant,
			core.Policy{DisablePrivilegeAnnotations: true}, model, t)
		if err != nil {
			return AblationResult{}, err
		}
		without = append(without, float64(m2.LLMCalls))
	}
	return AblationResult{
		Name:     "privilege annotations OFF",
		Value:    mean(without),
		Baseline: mean(with),
		Unit:     "calls",
		Note:     "avg #LLM calls to abort an infeasible (I, read) task",
	}, nil
}

// ablateSchemaThreshold compares get_schema output size in full vs
// hierarchical mode on the BIRD-Ext catalog.
func ablateSchemaThreshold(cfg Config) (AblationResult, error) {
	suite := birdext.GenerateSuite(cfg.Seed)
	engine := suite.BuildEngine()
	user := birdext.SetupRole(engine, birdext.RoleAdmin)

	schemaTokens := func(threshold int) (int, error) {
		conn := core.NewSQLDBConn(engine, user)
		tk := core.New(conn, core.Policy{SchemaThreshold: threshold})
		res, err := tk.Client().CallTool(context.Background(), "get_schema", nil)
		if err != nil {
			return 0, err
		}
		return tokens.Count(res.Text), nil
	}
	full, err := schemaTokens(100)
	if err != nil {
		return AblationResult{}, err
	}
	hier, err := schemaTokens(5)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "hierarchical schema (n=5)",
		Value:    float64(hier),
		Baseline: float64(full),
		Unit:     "tokens",
		Note:     "get_schema output size, hierarchical vs full",
	}, nil
}

// ablateValueTopK compares get_value's top-k output against enumerating a
// column's whole domain — the token saving §2.2 claims.
func ablateValueTopK(cfg Config) (AblationResult, error) {
	engine := housingEngine(cfg.Seed, nl2ml.FullRows)
	user := nl2ml.SetupUser(engine)
	conn := core.NewSQLDBConn(engine, user)
	tk := core.New(conn, core.Policy{})

	res, err := tk.Client().CallTool(context.Background(), "get_value", map[string]any{
		"table": "house", "column": "median_income", "key": "8.3", "k": float64(5),
	})
	if err != nil {
		return AblationResult{}, err
	}
	if res.IsErr {
		return AblationResult{}, fmt.Errorf("get_value failed: %s", res.Text)
	}
	topK := tokens.Count(res.Text)

	root := engine.NewSession("root")
	all, err := root.Exec("SELECT DISTINCT median_income FROM house")
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "get_value top-k vs full enumeration",
		Value:    float64(topK),
		Baseline: float64(tokens.Count(all.Text())),
		Unit:     "tokens",
		Note:     "exemplar retrieval output size (Value = top-5)",
	}, nil
}

// ablateProxyParallelism times a two-producer proxy unit with parallel vs
// sequential producer execution (§2.5's parallel-execution benefit).
func ablateProxyParallelism(cfg Config) (AblationResult, error) {
	tasks := nl2ml.GenerateTasks()
	var t1 *task.Task
	for _, t := range tasks {
		if t.Pipeline.Level == 1 {
			t1 = t
			break
		}
	}
	timeRun := func(parallel bool) (float64, error) {
		engine := housingEngine(cfg.Seed, nl2ml.FullRows)
		user := nl2ml.SetupUser(engine)
		conn := core.NewSQLDBConn(engine, user)
		policy := core.Policy{DisableParallelProxy: !parallel}
		tk := core.New(conn, policy)
		mltools.NewServer(cfg.Seed).RegisterTools(tk.Registry())
		model := Models(cfg.Seed)[0]
		a := &agent.Agent{Model: model, Client: tk.Client(), SystemPrompt: tk.SystemPrompt()}
		start := time.Now()
		if _, err := a.Run(context.Background(), t1); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	par, err := timeRun(true)
	if err != nil {
		return AblationResult{}, err
	}
	seq, err := timeRun(false)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:     "proxy producers sequential",
		Value:    seq,
		Baseline: par,
		Unit:     "seconds",
		Note:     "level-1 NL2ML wall-clock, sequential vs parallel producers",
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
