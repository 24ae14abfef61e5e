package main

import (
	"fmt"
	"strings"

	"bridgescope/internal/bench/nl2ml"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// defaultHousingRows is the size of the housing table, the paper's. A task
// over it takes about 0.37 s and allocates about 140 MB here.
const defaultHousingRows = 20_000

// nl2mlProxy is the paper's NL2ML through the proxy tool: the 15
// linear-regression pipelines (levels 1-3) over the housing table. Each task
// moves a rows x 6-9 result through select, the eager Data marshal, a nested
// JSON-RPC envelope, json.Unmarshal, the transform and the ML tool. The 15
// random-forest tasks are left out: tree fitting is 70-75% of their time and
// would bury the data path this workload exists to show.
type nl2mlProxy struct {
	rows int // of the housing table

	seed   int64
	engine *sqldb.Engine
	user   string
	tasks  []*task.Task
	models [2]llm.Model
}

func (w *nl2mlProxy) numTasks() int { return len(w.tasks) }

func (w *nl2mlProxy) describe() (string, string) {
	return fmt.Sprintf("15 train_linear_regression pipelines (NL2ML levels 1-3) over a %d-row housing table, models alternating", w.rows),
		"in-memory engine, no WAL"
}

func (w *nl2mlProxy) setup(seed int64, dir string) error {
	w.seed = seed
	w.engine = nl2ml.BuildHouseEngine(seed, w.rows)
	w.user = nl2ml.SetupUser(w.engine)
	w.tasks = nil
	for _, t := range nl2ml.GenerateTasks() {
		if t.Pipeline.ModelTool == "train_linear_regression" {
			w.tasks = append(w.tasks, t)
		}
	}
	w.models = [2]llm.Model{llm.NewSim(llm.GPT4o(), simSeed), llm.NewSim(llm.Claude4(), simSeed)}
	return nil
}

func (w *nl2mlProxy) prepare(pass, i int) *prepared {
	t := w.tasks[i]
	ml := mltools.NewServer(w.seed)
	rowsBefore := w.engine.Stats().RowsReturned
	return &prepared{
		conn:   core.NewSQLDBConn(w.engine, w.user),
		engine: w.engine,
		task:   t,
		model:  w.models[i%2],
		tools:  func(reg *mcp.Registry) { ml.RegisterTools(reg) },
		check: func(o *outcome) (bool, []string) {
			ok := o.met.Completed && strings.Contains(o.met.FinalAnswer, "Workflow completed")
			var problems []string
			if !ok {
				problems = append(problems, fmt.Sprintf("nl2ml %s: did not end with \"Workflow completed\" (aborted=%v: %s)", t.ID, o.met.Aborted, o.met.AbortReason))
			}
			var bytes int
			for _, c := range o.calls {
				bytes += len(c.text)
				if c.tool == "proxy" && c.isErr {
					problems = append(problems, fmt.Sprintf("nl2ml %s: proxy failed: %s", t.ID, c.text))
				}
			}
			// The data must bypass the model: only summaries reach it.
			if bytes >= 64<<10 {
				problems = append(problems, fmt.Sprintf("nl2ml %s: %d bytes entered the model's context, the bulk data leaked", t.ID, bytes))
			}
			// The features producer and the target producer each returned
			// the whole table; level 3 adds the 10 rows to predict.
			want := int64(2 * w.rows)
			if t.Pipeline.Predict {
				want += 10
			}
			if got := w.engine.Stats().RowsReturned - rowsBefore; got != want {
				problems = append(problems, fmt.Sprintf("nl2ml %s: producers returned %d rows, expected %d", t.ID, got, want))
			}
			return ok, problems
		},
	}
}

func (w *nl2mlProxy) endPass(pass int, agg *engineAgg) []string { return nil }

func (w *nl2mlProxy) finish() ([]string, map[string]float64) { return nil, nil }

func (w *nl2mlProxy) teardown() { w.engine = nil }
