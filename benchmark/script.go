package main

import (
	"strings"

	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// scripted is the llm.Model of the workloads that are not the paper's: it
// plays a fixed session, one batch of tool calls per decision, so the agent
// loop, its token accounting and the tool protocol run exactly as they do
// under a simulated model. When a call fails the agent stops the batch; the
// script then sends its recovery calls (a rollback) and ends.
type scripted struct {
	turns   [][]llm.ToolCall
	onError []llm.ToolCall
	final   string
}

func (m *scripted) Name() string       { return "scripted" }
func (m *scripted) ContextWindow() int { return 1 << 30 }

func (m *scripted) Decide(st *llm.State) (*llm.Decision, error) {
	// Which turn this is follows from the calls already made.
	done, failed := 0, false
	for _, s := range st.Steps {
		done++
		if s.IsError {
			failed = true
		}
	}
	if failed {
		recovered := done > 0 && !st.Steps[done-1].IsError
		if !recovered && len(m.onError) > 0 {
			return &llm.Decision{Thought: "The statement failed; undo the transaction.", Calls: m.onError}, nil
		}
		return &llm.Decision{Thought: "Report the failure.", Final: "failed: " + m.final}, nil
	}
	for _, turn := range m.turns {
		if done == 0 {
			return &llm.Decision{Thought: "Run the next step of the session.", Calls: turn}, nil
		}
		done -= len(turn)
	}
	return &llm.Decision{Thought: "Report the result.", Final: m.final}, nil
}

// sessionTask wraps a script as the task the agent runs.
func sessionTask(id, nl string) *task.Task {
	return &task.Task{ID: id, NL: nl, Kind: task.Read}
}

func call(tool, sql string) llm.ToolCall {
	if sql == "" {
		return llm.ToolCall{Tool: tool}
	}
	return llm.ToolCall{Tool: tool, Args: map[string]any{"sql": sql}}
}

// bulkInsert loads rows 1..n of a table in statements of 500 rows.
func bulkInsert(sess *sqldb.Session, table string, n int, row func(i int) string) {
	batch := make([]string, 0, 500)
	for i := 1; i <= n; i++ {
		batch = append(batch, row(i))
		if len(batch) == cap(batch) || i == n {
			sess.MustExec("INSERT INTO " + table + " VALUES " + strings.Join(batch, ", "))
			batch = batch[:0]
		}
	}
}

// secondLine is the first data row of a rendered result.
func secondLine(text string) string {
	lines := strings.Split(text, "\n")
	if len(lines) < 2 {
		return ""
	}
	return strings.TrimSpace(lines[1])
}
