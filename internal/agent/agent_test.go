package agent

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/task"
)

// scriptedModel replays a fixed decision sequence.
type scriptedModel struct {
	name      string
	window    int
	decisions []*llm.Decision
	step      int
}

func (m *scriptedModel) Name() string       { return m.name }
func (m *scriptedModel) ContextWindow() int { return m.window }
func (m *scriptedModel) Decide(st *llm.State) (*llm.Decision, error) {
	if m.step >= len(m.decisions) {
		return &llm.Decision{Final: "done"}, nil
	}
	d := m.decisions[m.step]
	m.step++
	return d, nil
}

func echoClient() *mcp.Client {
	reg := mcp.NewRegistry()
	reg.Register(&mcp.Tool{
		Name: "echo",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			msg, _ := args["msg"].(string)
			return "echo:" + msg, nil
		},
	})
	reg.Register(&mcp.Tool{
		Name: "big",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			return strings.Repeat("data ", 20000), nil // ~25k tokens
		},
	})
	reg.Register(&mcp.Tool{Name: "begin",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return "BEGIN", nil }})
	return mcp.NewClient(mcp.NewServer(reg))
}

func testTask() *task.Task {
	return &task.Task{ID: "t", NL: "do the thing", Kind: task.Read}
}

func TestAgentRunsToFinal(t *testing.T) {
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Thought: "call echo", Calls: []llm.ToolCall{{Tool: "echo", Args: map[string]any{"msg": "hi"}}}},
		{Thought: "finish", Final: "all done"},
	}}
	a := &Agent{Model: model, Client: echoClient(), SystemPrompt: "sys"}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Completed || met.FinalAnswer != "all done" {
		t.Fatalf("run did not complete: %+v", met)
	}
	if met.LLMCalls != 2 || met.ToolCalls != 1 {
		t.Fatalf("call counts wrong: %+v", met)
	}
	if met.PromptTokens == 0 || met.CompletionTokens == 0 {
		t.Fatalf("token accounting missing: %+v", met)
	}
}

func TestAgentAbort(t *testing.T) {
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Thought: "cannot do this", Abort: true, AbortReason: "infeasible"},
	}}
	a := &Agent{Model: model, Client: echoClient(), SystemPrompt: "sys"}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Aborted || met.AbortReason != "infeasible" || met.Completed {
		t.Fatalf("abort not recorded: %+v", met)
	}
	if met.LLMCalls != 1 {
		t.Fatalf("abort should cost exactly one call: %+v", met)
	}
}

func TestAgentContextExhaustion(t *testing.T) {
	model := &scriptedModel{name: "m", window: 5000, decisions: []*llm.Decision{
		{Thought: "fetch", Calls: []llm.ToolCall{{Tool: "big"}}},
		{Thought: "never reached", Final: "x"},
	}}
	a := &Agent{Model: model, Client: echoClient(), SystemPrompt: "sys"}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.ContextExhausted || met.Completed {
		t.Fatalf("context exhaustion not detected: %+v", met)
	}
	// The failing call is never issued.
	if met.LLMCalls != 1 {
		t.Fatalf("LLM calls after exhaustion: %+v", met)
	}
}

func TestAgentTransactionDetection(t *testing.T) {
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Calls: []llm.ToolCall{{Tool: "begin"}}},
		{Final: "done"},
	}}
	a := &Agent{Model: model, Client: echoClient()}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.TransactionUsed {
		t.Fatalf("begin tool not detected: %+v", met)
	}
	// Via execute_sql BEGIN too.
	reg := mcp.NewRegistry()
	reg.Register(&mcp.Tool{Name: "execute_sql",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return "BEGIN", nil }})
	model2 := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Calls: []llm.ToolCall{{Tool: "execute_sql", Args: map[string]any{"sql": "BEGIN"}}}},
		{Final: "done"},
	}}
	a2 := &Agent{Model: model2, Client: mcp.NewClient(mcp.NewServer(reg))}
	met2, err := a2.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met2.TransactionUsed {
		t.Fatalf("execute_sql BEGIN not detected: %+v", met2)
	}
}

func TestAgentStopsBatchOnError(t *testing.T) {
	reg := mcp.NewRegistry()
	var calls []string
	handler := func(name string) mcp.Handler {
		return func(ctx context.Context, args map[string]any) (any, error) {
			calls = append(calls, name)
			if name == "bad" {
				return mcp.CallResult{Text: "ERROR: nope", IsErr: true}, nil
			}
			return "ok", nil
		}
	}
	reg.Register(&mcp.Tool{Name: "good", Handler: handler("good")})
	reg.Register(&mcp.Tool{Name: "bad", Handler: handler("bad")})
	reg.Register(&mcp.Tool{Name: "after", Handler: handler("after")})
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Calls: []llm.ToolCall{{Tool: "good"}, {Tool: "bad"}, {Tool: "after"}}},
		{Final: "done"},
	}}
	a := &Agent{Model: model, Client: mcp.NewClient(mcp.NewServer(reg))}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[1] != "bad" {
		t.Fatalf("batch should stop at the failing call, got %v", calls)
	}
	if met.ToolCalls != 2 {
		t.Fatalf("tool call count wrong: %+v", met)
	}
}

func TestAgentTurnLimit(t *testing.T) {
	// A model that loops forever.
	loop := &loopingModel{}
	a := &Agent{Model: loop, Client: echoClient(), MaxTurns: 4}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.TurnLimit || met.LLMCalls != 4 {
		t.Fatalf("turn limit not enforced: %+v", met)
	}
}

type loopingModel struct{}

func (loopingModel) Name() string       { return "loop" }
func (loopingModel) ContextWindow() int { return 1 << 30 }
func (loopingModel) Decide(*llm.State) (*llm.Decision, error) {
	return &llm.Decision{Calls: []llm.ToolCall{{Tool: "echo", Args: map[string]any{"msg": "again"}}}}, nil
}

func TestAgentUnknownToolBecomesErrorObservation(t *testing.T) {
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Calls: []llm.ToolCall{{Tool: "missing"}}},
		{Final: "done"},
	}}
	a := &Agent{Model: model, Client: echoClient()}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Completed {
		t.Fatalf("run should continue past unknown tool: %+v", met)
	}
}

// A whitespace-only statement is the tool's error to report, not the
// agent's to crash on: the model sees the observation and the run goes on.
func TestAgentBlankSQLBecomesErrorObservation(t *testing.T) {
	reg := mcp.NewRegistry()
	reg.Register(&mcp.Tool{Name: "execute_sql",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			if sql, _ := args["sql"].(string); strings.TrimSpace(sql) == "" {
				return nil, fmt.Errorf("execute_sql: missing required argument \"sql\"")
			}
			return "1 row", nil
		}})
	model := &scriptedModel{name: "m", window: 100000, decisions: []*llm.Decision{
		{Calls: []llm.ToolCall{{Tool: "execute_sql", Args: map[string]any{"sql": "  "}}}},
		{Calls: []llm.ToolCall{{Tool: "execute_sql", Args: map[string]any{"sql": ""}}}},
		{Calls: []llm.ToolCall{{Tool: "execute_sql", Args: map[string]any{"sql": "SELECT 1"}}}},
		{Final: "recovered"},
	}}
	a := &Agent{Model: model, Client: mcp.NewClient(mcp.NewServer(reg))}
	met, err := a.Run(context.Background(), testTask())
	if err != nil {
		t.Fatal(err)
	}
	if !met.Completed || met.FinalAnswer != "recovered" || met.ToolCalls != 3 || met.LLMCalls != 4 {
		t.Fatalf("run did not continue past the blank statements: %+v", met)
	}
	if met.TransactionUsed || met.LastQueryResult != "1 row" {
		t.Fatalf("blank statements misread: %+v", met)
	}
}
