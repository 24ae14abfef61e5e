// Package agent implements the ReAct loop (reason → act → observe) that
// drives a Model against an MCP tool server, with full token accounting and
// context-window enforcement. It is the prototype general-purpose agent of
// the paper's §3.1, shared by every experiment.
package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/task"
	"bridgescope/internal/tokens"
)

// Metrics captures everything the experiments measure about one run.
type Metrics struct {
	TaskID string
	Model  string

	LLMCalls         int
	PromptTokens     int
	CompletionTokens int
	ToolCalls        int

	Completed        bool // reached a Final answer
	Aborted          bool // model declared the task infeasible/failed
	AbortReason      string
	ContextExhausted bool // prompt outgrew the context window
	TurnLimit        bool // hit MaxTurns without finishing

	TransactionUsed bool   // a transaction was opened during the run
	FinalAnswer     string // the model's final message
	LastQueryResult string // last successful SELECT observation (read scoring)
}

// TotalTokens returns prompt + completion tokens.
func (m *Metrics) TotalTokens() int { return m.PromptTokens + m.CompletionTokens }

// ToolClient is the tool-server interface the agent drives. *mcp.Client
// implements it; wrappers (tracing, fault injection) can too.
type ToolClient interface {
	ListTools(ctx context.Context) ([]mcp.ToolInfo, error)
	CallTool(ctx context.Context, name string, args map[string]any) (mcp.CallResult, error)
}

// Agent binds a model to a tool server.
type Agent struct {
	Model        llm.Model
	Client       ToolClient
	SystemPrompt string
	// MaxTurns bounds the ReAct loop; 0 means the default of 16.
	MaxTurns int
}

// Run executes one task to completion, abort, or failure.
func (a *Agent) Run(ctx context.Context, t *task.Task) (*Metrics, error) {
	maxTurns := a.MaxTurns
	if maxTurns == 0 {
		maxTurns = 16
	}
	tools, err := a.Client.ListTools(ctx)
	if err != nil {
		return nil, fmt.Errorf("agent: listing tools: %w", err)
	}
	st := &llm.State{Task: t, SystemPrompt: a.SystemPrompt, Tools: tools}
	met := &Metrics{TaskID: t.ID, Model: a.Model.Name()}

	// The static prompt prefix: system prompt, tool list, task text.
	baseTokens := tokens.Count(a.SystemPrompt) + tokens.Count(renderTools(tools)) + tokens.Count(t.NL)
	historyTokens := 0

	for turn := 0; turn < maxTurns; turn++ {
		promptTokens := baseTokens + historyTokens
		if promptTokens > a.Model.ContextWindow() {
			// The conversation no longer fits: the run fails. This is the
			// failure mode that gives PG-MCP a 0.0 completion rate on
			// NL2ML (paper Table 2).
			met.ContextExhausted = true
			return met, nil
		}
		d, err := a.Model.Decide(st)
		if err != nil {
			return nil, fmt.Errorf("agent: model decision: %w", err)
		}
		met.LLMCalls++
		met.PromptTokens += promptTokens
		met.CompletionTokens += tokens.Count(d.Render())

		if d.Abort {
			met.Aborted = true
			met.AbortReason = d.AbortReason
			return met, nil
		}
		if d.Final != "" {
			met.Completed = true
			met.FinalAnswer = d.Final
			return met, nil
		}
		if len(d.Calls) == 0 {
			return nil, fmt.Errorf("agent: model produced an empty decision")
		}
		for _, call := range d.Calls {
			res, err := a.Client.CallTool(ctx, call.Tool, call.Args)
			if err != nil {
				// Protocol-level failure (unknown tool etc.) surfaces as an
				// error observation the model can react to.
				res = mcp.CallResult{Text: "ERROR: " + err.Error(), IsErr: true}
			}
			argsText := renderArgs(call.Args)
			step := llm.Step{Call: call, ArgsText: argsText, Observation: res.Text, IsError: res.IsErr}
			st.Steps = append(st.Steps, step)
			met.ToolCalls++
			historyTokens += tokens.Count(call.Tool) + tokens.Count(argsText) + tokens.Count(res.Text)

			if isTransactionOpen(call) {
				met.TransactionUsed = true
			}
			if !res.IsErr && isSelectCall(call) {
				met.LastQueryResult = res.Text
			}
			if res.IsErr {
				// Stop the batch; the model reacts to the error next turn.
				break
			}
		}
	}
	met.TurnLimit = true
	return met, nil
}

func renderArgs(args map[string]any) string {
	if len(args) == 0 {
		return "{}"
	}
	raw, err := json.Marshal(args)
	if err != nil {
		return fmt.Sprintf("%v", args)
	}
	return string(raw)
}

func renderTools(tools []mcp.ToolInfo) string {
	raw, err := json.Marshal(tools)
	if err != nil {
		return ""
	}
	return string(raw)
}

func isTransactionOpen(call llm.ToolCall) bool {
	return call.Tool == "begin" || strings.EqualFold(sqlVerb(call), "BEGIN")
}

func isSelectCall(call llm.ToolCall) bool {
	return call.Tool == "select" || strings.EqualFold(sqlVerb(call), "SELECT")
}

// sqlVerb is the first word of the statement an execute_sql call carries;
// empty for any other call and for a blank or missing statement.
func sqlVerb(call llm.ToolCall) string {
	if call.Tool != "execute_sql" {
		return ""
	}
	sql, _ := call.Args["sql"].(string)
	if f := strings.Fields(sql); len(f) > 0 {
		return f[0]
	}
	return ""
}
