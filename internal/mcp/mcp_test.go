package mcp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(&Tool{
		Name:        "echo",
		Description: "echo back the message",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			msg, _ := args["message"].(string)
			return "echo: " + msg, nil
		},
	})
	reg.Register(&Tool{
		Name:        "add",
		Description: "add two numbers",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			a, _ := args["a"].(float64)
			b, _ := args["b"].(float64)
			return map[string]any{"sum": a + b}, nil
		},
	})
	reg.Register(&Tool{
		Name: "fail",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			return nil, errors.New("boom")
		},
	})
	return reg
}

func TestListTools(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	tools, err := client.ListTools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tools) != 3 || tools[0].Name != "echo" || tools[1].Name != "add" {
		t.Fatalf("unexpected tool list %v", tools)
	}
}

func TestCallToolText(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	res, err := client.CallTool(context.Background(), "echo", map[string]any{"message": "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if res.IsErr || res.Text != "echo: hi" {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestCallToolStructured(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	res, err := client.CallTool(context.Background(), "add", map[string]any{"a": 2.0, "b": 3.0})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]float64
	if err := json.Unmarshal(res.Data, &out); err != nil {
		t.Fatal(err)
	}
	if out["sum"] != 5 {
		t.Fatalf("sum = %v", out["sum"])
	}
	if !strings.Contains(res.Text, `"sum":5`) {
		t.Fatalf("text payload missing: %q", res.Text)
	}
}

func TestToolErrorIsContent(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	res, err := client.CallTool(context.Background(), "fail", nil)
	if err != nil {
		t.Fatalf("tool errors must be content, not transport errors: %v", err)
	}
	if !res.IsErr || !strings.Contains(res.Text, "boom") {
		t.Fatalf("unexpected error result %+v", res)
	}
}

func TestUnknownToolAndMethod(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	_, err := client.CallTool(context.Background(), "nope", nil)
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Code != CodeMethodNotFound {
		t.Fatalf("want method-not-found, got %v", err)
	}
	srv := NewServer(testRegistry())
	resp := srv.Handle(context.Background(), &Request{JSONRPC: "2.0", ID: 1, Method: "bogus"})
	if resp.Error == nil || resp.Error.Code != CodeMethodNotFound {
		t.Fatalf("unknown method must error, got %+v", resp)
	}
}

func TestArgumentsSurviveJSONBoundary(t *testing.T) {
	reg := NewRegistry()
	var got map[string]any
	reg.Register(&Tool{
		Name: "capture",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			got = args
			return "ok", nil
		},
	})
	client := NewClient(NewServer(reg))
	_, err := client.CallTool(context.Background(), "capture", map[string]any{
		"n":    int64(7), // ints become float64 over JSON
		"list": []string{"a", "b"},
		"deep": map[string]any{"x": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, isFloat := got["n"].(float64); !isFloat {
		t.Fatalf("int should arrive as float64 after the wire, got %T", got["n"])
	}
	if _, isSlice := got["list"].([]any); !isSlice {
		t.Fatalf("slice should arrive as []any, got %T", got["list"])
	}
	deep, _ := got["deep"].(map[string]any)
	if deep["x"] != true {
		t.Fatalf("nested map lost: %v", got["deep"])
	}
}

func TestRegistryUnregisterAndReplace(t *testing.T) {
	reg := testRegistry()
	reg.Unregister("echo")
	if _, ok := reg.Get("echo"); ok {
		t.Fatal("unregister failed")
	}
	if got := listTools(t, reg); len(got) != 2 {
		t.Fatalf("list length %d after unregister", len(got))
	}
	// Replacement keeps position.
	reg.Register(&Tool{Name: "add", Description: "new desc", Handler: func(ctx context.Context, args map[string]any) (any, error) { return "x", nil }})
	if got := listTools(t, reg); got[0].Description != "new desc" {
		t.Fatalf("replace failed: %+v", got)
	}
}

func listTools(t *testing.T, reg *Registry) []ToolInfo {
	t.Helper()
	tools, err := NewClient(NewServer(reg)).ListTools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tools
}

// The handler works on arguments decoded from the request bytes: it cannot
// reach the caller's map, and numbers arrive as JSON numbers.
func TestHandlerArgumentsAreDecodedFromTheWire(t *testing.T) {
	reg := NewRegistry()
	var k any
	reg.Register(&Tool{
		Name: "mutate",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			k = args["k"]
			args["k"] = "overwritten"
			args["added"] = true
			args["nested"].(map[string]any)["x"] = "overwritten"
			return "ok", nil
		},
	})
	nested := map[string]any{"x": 1}
	args := map[string]any{"k": 2, "nested": nested}
	if _, err := NewClient(NewServer(reg)).CallTool(context.Background(), "mutate", args); err != nil {
		t.Fatal(err)
	}
	if f, ok := k.(float64); !ok || f != 2 {
		t.Fatalf("int argument arrived as %T %v, want float64 2", k, k)
	}
	if len(args) != 2 || args["k"] != 2 || nested["x"] != 1 {
		t.Fatalf("handler changed the caller's arguments: %v", args)
	}
}

// What serve cannot decode is refused, not dispatched.
func TestMalformedRequestIsRefused(t *testing.T) {
	srv := NewServer(testRegistry())
	for _, wire := range []string{``, `{`, `{"jsonrpc":"2.0","id":1,"method":"tools/call","params":7}`,
		`{"jsonrpc":"2.0","id":1,"method":"tools/call","params":{"name":"echo","arguments":[]}}`} {
		if resp := srv.serve(context.Background(), []byte(wire)); resp.Error == nil || resp.Error.Code != CodeInvalidParams {
			t.Errorf("%q: want invalid-params, got %+v", wire, resp)
		}
	}
	resp := srv.serve(context.Background(), []byte(`{"jsonrpc":"2.0","id":9,"method":"tools/call"}`))
	if resp.Error == nil || resp.Error.Code != CodeInvalidParams || resp.ID != 9 {
		t.Errorf("call without params: %+v", resp)
	}
}

func describedTools() []Tool {
	return []Tool{
		NewTool("plain", "no arguments", nil),
		NewTool("empty", "an empty schema is no schema", map[string]any{}),
		NewTool("quoted", `says "hi" to <you> & yours`, map[string]any{
			"type":       "object",
			"required":   []any{"who"},
			"properties": map[string]any{"who": map[string]any{"type": "string", "description": "a <name>"}, "n": map[string]any{"type": "integer"}},
		}),
	}
}

// The joined entries are byte for byte what marshalling the descriptions
// with their schemas as maps gives — the form the list had before schemas
// were held encoded.
func TestToolsListMatchesMarshalledDescriptions(t *testing.T) {
	type mapInfo struct {
		Name        string         `json:"name"`
		Description string         `json:"description"`
		InputSchema map[string]any `json:"inputSchema,omitempty"`
	}
	reg := NewRegistry()
	var want []mapInfo
	for _, tool := range describedTools() {
		reg.Register(&tool)
		mi := mapInfo{Name: tool.Name, Description: tool.Description}
		if tool.InputSchema != nil {
			if err := json.Unmarshal(tool.InputSchema, &mi.InputSchema); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, mi)
	}
	// A literal tool has no pre-encoded entry and is encoded when listed.
	reg.Register(&Tool{Name: "literal", Description: "built in place", InputSchema: json.RawMessage(`{"type":"object"}`)})
	want = append(want, mapInfo{Name: "literal", Description: "built in place", InputSchema: map[string]any{"type": "object"}})

	wantRaw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg.listJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantRaw) {
		t.Fatalf("tools/list bytes differ\n got: %s\nwant: %s", got, wantRaw)
	}
	if empty, _ := NewRegistry().listJSON(); string(empty) != "[]" {
		t.Fatalf("empty registry lists as %s", empty)
	}
	reg.Register(&Tool{Name: "broken", InputSchema: json.RawMessage(`{`)})
	if _, err := NewClient(NewServer(reg)).ListTools(context.Background()); err == nil {
		t.Fatal("a schema that is not JSON must fail the listing")
	}
}

// Every change to the registry shows in the next listing: late registration
// (domain tools added to a built toolkit), removal, and re-registration of a
// copy — the same entry under another handler, or an edited copy, whose
// pre-encoded entry no longer describes it.
func TestListToolsFollowsTheRegistry(t *testing.T) {
	reg := NewRegistry()
	defs := describedTools()
	reg.Register(&defs[0])
	client := NewClient(NewServer(reg))
	names := func() string {
		t.Helper()
		tools, err := client.ListTools(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, ti := range tools {
			out = append(out, ti.Name+":"+ti.Description)
		}
		return strings.Join(out, " ")
	}
	if got := names(); got != "plain:no arguments" {
		t.Fatalf("first listing: %s", got)
	}
	reg.Register(&defs[2])
	if got := names(); !strings.HasSuffix(got, "& yours") {
		t.Fatalf("late registration not listed: %s", got)
	}
	reg.Unregister("quoted")
	if got := names(); got != "plain:no arguments" {
		t.Fatalf("removal not reflected: %s", got)
	}

	tool, _ := reg.Get("plain")
	wrapped := *tool
	wrapped.Handler = func(ctx context.Context, args map[string]any) (any, error) { return "wrapped", nil }
	reg.Register(&wrapped)
	if got := names(); got != "plain:no arguments" {
		t.Fatalf("re-registered copy changed the listing: %s", got)
	}
	if res, err := client.CallTool(context.Background(), "plain", nil); err != nil || res.Text != "wrapped" {
		t.Fatalf("re-registered handler not called: %v %+v", err, res)
	}
	if entry, _ := wrapped.listEntry(); &entry[0] != &defs[0].entry.wire[0] {
		t.Fatal("an unedited copy must reuse the pre-encoded entry")
	}

	edited := wrapped
	edited.Description = "edited after the copy"
	reg.Register(&edited)
	if got := names(); got != "plain:edited after the copy" {
		t.Fatalf("edited copy listed with its stale entry: %s", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	client := NewClient(NewServer(testRegistry()))
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			res, err := client.CallTool(context.Background(), "echo",
				map[string]any{"message": fmt.Sprint(i)})
			if err == nil && res.Text != "echo: "+fmt.Sprint(i) {
				err = fmt.Errorf("wrong echo %q", res.Text)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type renderedOnce struct{ renders int }

func (r *renderedOnce) Render() CallResult {
	r.renders++
	return CallResult{Text: "a | b\n(0 rows)", Data: json.RawMessage(`{"columns":["a","b"],"rows":null}`)}
}

// A Renderer result is encoded by Server.Handle, once, with its own Text and
// Data rather than its json.Marshal form.
func TestRendererResultIsRenderedAtTheServer(t *testing.T) {
	reg := NewRegistry()
	out := &renderedOnce{}
	reg.Register(&Tool{
		Name:    "table",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return out, nil },
	})
	res, err := NewClient(NewServer(reg)).CallTool(context.Background(), "table", nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.renders != 1 {
		t.Fatalf("rendered %d times, want once", out.renders)
	}
	if res.Text != "a | b\n(0 rows)" || string(res.Data) != `{"columns":["a","b"],"rows":null}` || res.IsErr {
		t.Fatalf("unexpected wire result %+v", res)
	}
}
