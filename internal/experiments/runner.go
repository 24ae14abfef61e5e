package experiments

import (
	"context"
	"fmt"
	"strings"

	"bridgescope/internal/agent"
	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/pgmcp"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// Outcome couples an agent run's metrics with its correctness verdict.
type Outcome struct {
	Metrics *agent.Metrics
	Correct bool
}

// runBirdTask executes one BIRD-Ext task under a role and toolkit, scoring
// correctness against the task's recorded expectation.
func runBirdTask(suite *birdext.Suite, role birdext.Role, kind ToolkitKind, model llm.Model, t *task.Task) (*Outcome, error) {
	engine := suite.BuildEngine()
	user := birdext.SetupRole(engine, role)
	conn := core.NewSQLDBConn(engine, user)

	var client *mcp.Client
	var prompt string
	switch kind {
	case BridgeScope:
		tk := core.New(conn, core.Policy{})
		client = tk.Client()
		prompt = tk.SystemPrompt()
	case PGMCP:
		tk := pgmcp.New(conn, pgmcp.Options{WithSchemaTool: true})
		client = mcp.NewClient(mcp.NewServer(tk.Registry()))
		prompt = tk.SystemPrompt()
	case PGMCPMinus:
		tk := pgmcp.New(conn, pgmcp.Options{WithSchemaTool: false})
		client = mcp.NewClient(mcp.NewServer(tk.Registry()))
		prompt = tk.SystemPrompt()
	default:
		return nil, fmt.Errorf("toolkit %q is not valid for BIRD-Ext", kind)
	}

	a := &agent.Agent{Model: model, Client: client, SystemPrompt: prompt}
	met, err := a.Run(context.Background(), t)
	if err != nil {
		return nil, fmt.Errorf("task %s (%s, %s, %s): %w", t.ID, role, kind, model.Name(), err)
	}
	return &Outcome{Metrics: met, Correct: scoreBird(engine, t, met)}, nil
}

// scoreBird verifies post-state for write tasks and answer text for reads.
func scoreBird(engine *sqldb.Engine, t *task.Task, met *agent.Metrics) bool {
	if !met.Completed {
		return false
	}
	root := engine.NewSession("root")
	if t.Kind.IsWrite() {
		r, err := root.Exec(t.VerifySQL)
		if err != nil {
			return false
		}
		return r.Text() == t.Expected
	}
	return strings.TrimSpace(met.LastQueryResult) == strings.TrimSpace(t.Expected)
}

// runNL2MLTask executes one NL2ML task with the selected toolkit. The ML
// tool server is attached to every toolkit, as in §3.4 ("we equip agents
// with extra tools for data processing and machine learning").
func runNL2MLTask(cfg Config, kind ToolkitKind, model llm.Model, t *task.Task) (*Outcome, error) {
	rows := nl2ml.FullRows
	if kind == PGMCPSmall {
		rows = nl2ml.SmallRows
	}
	engine := housingEngine(cfg.Seed, rows)
	user := nl2ml.SetupUser(engine)
	conn := core.NewSQLDBConn(engine, user)

	mlServer := mltools.NewServer(cfg.Seed)

	var client *mcp.Client
	var prompt string
	switch kind {
	case BridgeScope:
		tk := core.New(conn, core.Policy{})
		mlServer.RegisterTools(tk.Registry())
		client = tk.Client()
		prompt = tk.SystemPrompt()
	case PGMCP, PGMCPSmall:
		tk := pgmcp.New(conn, pgmcp.Options{WithSchemaTool: true})
		mlServer.RegisterTools(tk.Registry())
		client = mcp.NewClient(mcp.NewServer(tk.Registry()))
		prompt = tk.SystemPrompt()
	default:
		return nil, fmt.Errorf("toolkit %q is not valid for NL2ML", kind)
	}

	a := &agent.Agent{Model: model, Client: client, SystemPrompt: prompt}
	met, err := a.Run(context.Background(), t)
	if err != nil {
		return nil, fmt.Errorf("task %s (%s, %s): %w", t.ID, kind, model.Name(), err)
	}
	// NL2ML scoring is completion-based (Table 2's completion rate): the
	// workflow finished and reported a model/prediction result.
	correct := met.Completed && strings.Contains(met.FinalAnswer, "Workflow completed")
	return &Outcome{Metrics: met, Correct: correct}, nil
}

// sampleTasks applies the config's sampling stride.
func sampleTasks(tasks []*task.Task, stride int) []*task.Task {
	if stride <= 1 {
		return tasks
	}
	var out []*task.Task
	for i := 0; i < len(tasks); i += stride {
		out = append(out, tasks[i])
	}
	return out
}

// mean returns the average of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
