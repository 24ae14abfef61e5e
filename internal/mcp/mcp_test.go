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
	if len(reg.List()) != 2 {
		t.Fatalf("list length %d after unregister", len(reg.List()))
	}
	// Replacement keeps position.
	reg.Register(&Tool{Name: "add", Description: "new desc", Handler: func(ctx context.Context, args map[string]any) (any, error) { return "x", nil }})
	if reg.List()[0].Description != "new desc" {
		t.Fatalf("replace failed: %+v", reg.List())
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
