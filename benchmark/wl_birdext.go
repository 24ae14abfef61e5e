package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"bridgescope/internal/agent"
	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// simSeed fixes the simulated models' behaviour draws. --seed drives the
// data; the draws stay put so tokens, LLM calls and success rate move only
// when the code moves, not from one seed to the next.
const simSeed = 1

// birdextAgent is the paper's BIRD-Ext: all 300 tasks under each of the
// three roles, the two simulated models alternating. Every task gets a
// fresh toolkit; a task that may write (admin role, write task) also gets a
// fresh engine, so the plan cache is cold and the executor does almost
// nothing. The time is mcp envelopes, context tools, verification and
// rejection, ClassifySQL and parsing, and the agent's own accounting.
type birdextAgent struct {
	seed   int64
	suite  *birdext.Suite
	models [2]llm.Model
	// shared holds one engine per role for tasks that cannot write; its
	// contents must never change.
	shared     map[birdext.Role]*sqldb.Engine
	sharedUser map[birdext.Role]string
	sharedHash map[birdext.Role]uint64
	// reference holds the verdict of every task: the golden file's when the
	// seed has one, else the warm-up pass's. Later passes must reproduce it.
	reference []byte
	golden    bool
	verdicts  []byte // the current pass
}

type birdItem struct {
	role birdext.Role
	t    *task.Task
}

func (w *birdextAgent) item(i int) birdItem {
	n := len(w.suite.Tasks)
	return birdItem{role: birdext.Roles[i/n], t: w.suite.Tasks[i%n]}
}

func (w *birdextAgent) numTasks() int { return len(birdext.Roles) * len(w.suite.Tasks) }

func (w *birdextAgent) describe() (string, string) {
	return "300 BIRD-Ext tasks x 3 roles (admin, normal, irrelevant) = 900 tasks/pass, tables <= 200 rows, models gpt-4o-sim/claude-4-sim alternating",
		"in-memory engines, no WAL"
}

func (w *birdextAgent) setup(seed int64, dir string) error {
	w.seed = seed
	w.suite = birdext.GenerateSuite(seed)
	w.models = [2]llm.Model{llm.NewSim(llm.GPT4o(), simSeed), llm.NewSim(llm.Claude4(), simSeed)}
	w.shared = map[birdext.Role]*sqldb.Engine{}
	w.sharedUser = map[birdext.Role]string{}
	w.sharedHash = map[birdext.Role]uint64{}
	for _, role := range birdext.Roles {
		e := w.suite.BuildEngine()
		w.sharedUser[role] = birdext.SetupRole(e, role)
		w.shared[role] = e
		h, err := contentHash(e)
		if err != nil {
			return err
		}
		w.sharedHash[role] = h
	}
	// A seed without a golden file is checked against its own warm-up pass;
	// a golden file that exists but cannot be read is an error.
	w.reference, w.golden = nil, false
	raw, err := os.ReadFile(goldenPath(seed))
	switch {
	case err == nil:
		w.reference, w.golden = []byte(strings.TrimSpace(string(raw))), true
		if len(w.reference) != w.numTasks() {
			return fmt.Errorf("golden file %s holds %d verdicts, the pass has %d tasks", goldenPath(seed), len(w.reference), w.numTasks())
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("golden file: %w", err)
	}
	w.verdicts = make([]byte, w.numTasks())
	return nil
}

func goldenPath(seed int64) string {
	return filepath.Join("golden", fmt.Sprintf("birdext-seed%d.txt", seed))
}

func (w *birdextAgent) prepare(pass, i int) *prepared {
	it := w.item(i)
	engine, userName := w.shared[it.role], w.sharedUser[it.role]
	mayWrite := it.role == birdext.RoleAdmin && it.t.Kind.IsWrite()
	if mayWrite {
		engine = w.suite.BuildEngine()
		userName = birdext.SetupRole(engine, it.role)
	}
	return &prepared{
		conn:   core.NewSQLDBConn(engine, userName),
		engine: engine,
		task:   it.t,
		model:  w.models[i%2],
		check: func(o *outcome) (bool, []string) {
			correct := scoreBird(engine, it.t, o.met)
			v := verdict(o.met, correct)
			w.verdicts[i] = v
			var problems []string
			if w.reference != nil && w.reference[i] != v {
				problems = append(problems, fmt.Sprintf("birdext %s as %s: verdict %q, expected %q", it.t.ID, it.role, v, w.reference[i]))
			}
			if mayWrite {
				if errs := engine.CheckConsistency(); len(errs) > 0 {
					problems = append(problems, fmt.Sprintf("birdext %s: engine inconsistent after task: %v", it.t.ID, errs[0]))
				}
			}
			if !birdext.Feasible(it.role, it.t.Kind.IsWrite()) && correct && it.t.Kind.IsWrite() {
				problems = append(problems, fmt.Sprintf("birdext %s as %s: an infeasible write task scored correct", it.t.ID, it.role))
			}
			return correct, problems
		},
	}
}

// verdict is one character per task: C completed and correct, c completed
// but wrong, a aborted, x context exhausted, t turn limit.
func verdict(m *agent.Metrics, correct bool) byte {
	switch {
	case m.Completed && correct:
		return 'C'
	case m.Completed:
		return 'c'
	case m.Aborted:
		return 'a'
	case m.ContextExhausted:
		return 'x'
	}
	return 't'
}

// scoreBird verifies post-state for write tasks and the answer text for
// reads, as internal/experiments scores the paper's Fig 5b.
func scoreBird(engine *sqldb.Engine, t *task.Task, met *agent.Metrics) bool {
	if !met.Completed {
		return false
	}
	if t.Kind.IsWrite() {
		r, err := engine.NewSession("root").Exec(t.VerifySQL)
		return err == nil && r.Text() == t.Expected
	}
	return strings.TrimSpace(met.LastQueryResult) == strings.TrimSpace(t.Expected)
}

func (w *birdextAgent) endPass(pass int, agg *engineAgg) []string {
	var problems []string
	for _, role := range birdext.Roles {
		e := w.shared[role]
		if errs := e.CheckConsistency(); len(errs) > 0 {
			problems = append(problems, fmt.Sprintf("birdext: shared %s engine inconsistent: %v", role, errs[0]))
		}
		h, err := contentHash(e)
		if err != nil || h != w.sharedHash[role] {
			problems = append(problems, fmt.Sprintf("birdext: shared %s engine changed (tasks that cannot write wrote): %v", role, err))
		}
	}
	if w.reference == nil {
		w.reference = append([]byte(nil), w.verdicts...)
	}
	return problems
}

func (w *birdextAgent) finish() ([]string, map[string]float64) { return nil, nil }

func (w *birdextAgent) teardown() {
	w.shared, w.suite = nil, nil
}

// writeGolden stores the last pass's verdicts as the seed's golden file.
func (w *birdextAgent) writeGolden() error {
	if err := os.MkdirAll("golden", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(w.seed), append(append([]byte(nil), w.verdicts...), '\n'), 0o644)
}

// contentHash hashes every table's rows in heap order, which is stable while
// nothing writes.
func contentHash(e *sqldb.Engine) (uint64, error) {
	h := fnv.New64a()
	root := e.NewSession("root")
	for _, name := range e.TableNames() {
		r, err := root.Exec("SELECT * FROM " + name)
		if err != nil {
			return 0, err
		}
		_, _ = h.Write([]byte(name))
		_, _ = h.Write([]byte(r.Text()))
	}
	return h.Sum64(), nil
}
