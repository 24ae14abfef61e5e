package core

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

func proxyToolkit(t *testing.T, policy Policy) *Toolkit {
	t.Helper()
	e := newStoreEngine(t)
	return adminToolkit(t, e, policy)
}

func TestProxySimpleUnit(t *testing.T) {
	tk := proxyToolkit(t, Policy{})
	// A consumer that counts rows it receives.
	tk.Registry().Register(&mcp.Tool{
		Name: "row_counter",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			rows, _ := args["rows"].([]any)
			return map[string]any{"n": len(rows)}, nil
		},
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "row_counter",
		"tool_args": map[string]any{
			"rows": map[string]any{
				"__tool__":      "select",
				"__args__":      map[string]any{"sql": "SELECT * FROM items"},
				"__transform__": "rows",
			},
		},
	})
	if res.IsErr {
		t.Fatalf("proxy failed: %s", res.Text)
	}
	if !strings.Contains(res.Text, `"n":3`) {
		t.Fatalf("consumer did not receive 3 rows: %s", res.Text)
	}
}

func TestProxyNestedUnits(t *testing.T) {
	tk := proxyToolkit(t, Policy{})
	// count_items -> double -> report: a three-level proxy hierarchy.
	tk.Registry().Register(&mcp.Tool{
		Name: "count_items",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			return map[string]any{"n": 3.0}, nil
		},
	})
	tk.Registry().Register(&mcp.Tool{
		Name: "double",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			v, _ := args["x"].(float64)
			return map[string]any{"value": v * 2}, nil
		},
	})
	tk.Registry().Register(&mcp.Tool{
		Name: "report",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			v, _ := args["x"].(float64)
			return map[string]any{"final": v}, nil
		},
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "report",
		"tool_args": map[string]any{
			"x": map[string]any{
				"__tool__": "double",
				"__args__": map[string]any{
					"x": map[string]any{
						"__tool__":      "count_items",
						"__args__":      map[string]any{},
						"__transform__": "field:n",
					},
				},
				"__transform__": "field:value",
			},
		},
	})
	if res.IsErr {
		t.Fatalf("nested proxy failed: %s", res.Text)
	}
	if !strings.Contains(res.Text, `"final":6`) {
		t.Fatalf("nested unit computed wrong value: %s", res.Text)
	}
}

func TestProxyParallelProducers(t *testing.T) {
	tk := proxyToolkit(t, Policy{})
	var concurrent, maxConcurrent int32
	slow := func(ctx context.Context, args map[string]any) (any, error) {
		cur := atomic.AddInt32(&concurrent, 1)
		for {
			old := atomic.LoadInt32(&maxConcurrent)
			if cur <= old || atomic.CompareAndSwapInt32(&maxConcurrent, old, cur) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
		return map[string]any{"ok": true}, nil
	}
	tk.Registry().Register(&mcp.Tool{Name: "slow_a", Handler: slow})
	tk.Registry().Register(&mcp.Tool{Name: "slow_b", Handler: slow})
	tk.Registry().Register(&mcp.Tool{
		Name: "join2",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			return "joined", nil
		},
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "join2",
		"tool_args": map[string]any{
			"a": map[string]any{"__tool__": "slow_a", "__args__": map[string]any{}},
			"b": map[string]any{"__tool__": "slow_b", "__args__": map[string]any{}},
		},
	})
	if res.IsErr {
		t.Fatalf("proxy failed: %s", res.Text)
	}
	if atomic.LoadInt32(&maxConcurrent) < 2 {
		t.Fatal("sibling producers did not run in parallel")
	}
}

func TestProxySequentialWhenDisabled(t *testing.T) {
	tk := proxyToolkit(t, Policy{DisableParallelProxy: true})
	var concurrent, maxConcurrent int32
	slow := func(ctx context.Context, args map[string]any) (any, error) {
		cur := atomic.AddInt32(&concurrent, 1)
		if cur > atomic.LoadInt32(&maxConcurrent) {
			atomic.StoreInt32(&maxConcurrent, cur)
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
		return "done", nil
	}
	tk.Registry().Register(&mcp.Tool{Name: "slow_a", Handler: slow})
	tk.Registry().Register(&mcp.Tool{Name: "slow_b", Handler: slow})
	tk.Registry().Register(&mcp.Tool{
		Name:    "join2",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return "ok", nil },
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "join2",
		"tool_args": map[string]any{
			"a": map[string]any{"__tool__": "slow_a", "__args__": map[string]any{}},
			"b": map[string]any{"__tool__": "slow_b", "__args__": map[string]any{}},
		},
	})
	if res.IsErr {
		t.Fatalf("proxy failed: %s", res.Text)
	}
	if atomic.LoadInt32(&maxConcurrent) != 1 {
		t.Fatalf("producers ran concurrently despite DisableParallelProxy (max %d)", maxConcurrent)
	}
}

func TestProxyProducerErrorPropagates(t *testing.T) {
	tk := proxyToolkit(t, Policy{})
	tk.Registry().Register(&mcp.Tool{
		Name:    "sink",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return "ok", nil },
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "sink",
		"tool_args": map[string]any{
			"x": map[string]any{
				"__tool__": "select",
				"__args__": map[string]any{"sql": "SELECT * FROM nope"},
			},
		},
	})
	if !res.IsErr || !strings.Contains(res.Text, "does not exist") {
		t.Fatalf("producer failure must surface, got %q", res.Text)
	}
}

func TestProxySecurityStillApplies(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	tk := New(NewSQLDBConn(e, "reader"), Policy{})
	tk.Registry().Register(&mcp.Tool{
		Name:    "sink",
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return "ok", nil },
	})
	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "sink",
		"tool_args": map[string]any{
			"x": map[string]any{
				"__tool__": "select",
				"__args__": map[string]any{"sql": "SELECT * FROM secrets"},
			},
		},
	})
	if !res.IsErr || !strings.Contains(res.Text, "permission denied") {
		t.Fatalf("proxy must not bypass verification, got %q", res.Text)
	}

	// The proxy looks tools up in the registry a client's calls go through:
	// a tool the policy hid is no target and no producer.
	hidden := adminToolkit(t, e, Policy{ToolBlacklist: []string{"delete"}})
	capture(hidden, "sink")
	del := map[string]any{"sql": "DELETE FROM items"}
	for what, args := range map[string]map[string]any{
		"target":   {"target_tool": "delete", "tool_args": del},
		"producer": {"target_tool": "sink", "tool_args": map[string]any{"x": map[string]any{"__tool__": "delete", "__args__": del}}},
	} {
		res := call(t, hidden, "proxy", args)
		if !res.IsErr || !strings.Contains(res.Text, `unknown tool "delete"`) {
			t.Fatalf("hidden %s must stay unreachable through proxy, got %q", what, res.Text)
		}
	}
	if left := e.NewSession("root").MustExec("SELECT COUNT(*) FROM items").Rows[0][0].I; left != 3 {
		t.Fatalf("rows were deleted through the proxy: %v left", left)
	}
}

func TestTransforms(t *testing.T) {
	tabular := map[string]any{
		"columns": []any{"a", "b"},
		"rows":    []any{[]any{1.0, 2.0}, []any{3.0, 4.0}},
	}
	cases := []struct {
		expr    string
		want    string // JSON of expected output
		wantErr bool
	}{
		{"identity", `{"columns":["a","b"],"rows":[[1,2],[3,4]]}`, false},
		{"lambda x: x", `{"columns":["a","b"],"rows":[[1,2],[3,4]]}`, false},
		{"rows", `[[1,2],[3,4]]`, false},
		{"column:b", `[2,4]`, false},
		{"matrix:a,b", `[[1,2],[3,4]]`, false},
		{"matrix:b", `[[2],[4]]`, false},
		{"vector:a", `[1,3]`, false},
		{"first", `[1,2]`, false},
		{"count", `2`, false},
		{"flatten", `[1,2,3,4]`, false},
		{"column:zzz", ``, true},
		{"lambda x: x + 1", ``, true},
		{"bogus", ``, true},
	}
	for _, c := range cases {
		got, err := ApplyTransform(c.expr, tabular)
		if c.wantErr {
			if err == nil {
				t.Errorf("transform %q: want error", c.expr)
			}
			continue
		}
		if err != nil {
			t.Errorf("transform %q: %v", c.expr, err)
			continue
		}
		raw, _ := json.Marshal(got)
		if string(raw) != c.want {
			t.Errorf("transform %q = %s, want %s", c.expr, raw, c.want)
		}
	}
}

func TestTransformChaining(t *testing.T) {
	obj := map[string]any{"inner": map[string]any{"rows": []any{[]any{7.0}}, "columns": []any{"x"}}}
	got, err := ApplyTransform("field:inner|vector:x", obj)
	if err != nil {
		t.Fatal(err)
	}
	vec, ok := got.([]float64)
	if !ok || len(vec) != 1 || vec[0] != 7 {
		t.Fatalf("chained transform wrong: %#v", got)
	}
}
