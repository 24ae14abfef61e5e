package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

// register adds a tool whose handler ignores its arguments.
func register(tk *Toolkit, name string, h func() (any, error)) {
	tk.Registry().Register(&mcp.Tool{
		Name:    name,
		Handler: func(ctx context.Context, args map[string]any) (any, error) { return h() },
	})
}

// capture registers a consumer that keeps the arguments it was handed.
func capture(tk *Toolkit, name string) *map[string]any {
	got := new(map[string]any)
	tk.Registry().Register(&mcp.Tool{
		Name: name,
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			*got = args
			return "ok", nil
		},
	})
	return got
}

func producer(tool, transform string) map[string]any {
	return map[string]any{"__tool__": tool, "__args__": map[string]any{}, "__transform__": transform}
}

// countingResult renders like a two-row table and counts how often it is
// asked to.
type countingResult struct {
	Rows    []int `json:"rows"`
	renders *atomic.Int32
}

func (c *countingResult) Render() mcp.CallResult {
	c.renders.Add(1)
	return mcp.CallResult{Text: "rendered", Data: []byte(`{"rows":[1,2]}`)}
}

// The proxy hands a producer's Go value to the consumer; only a result that
// leaves for the client is rendered, once.
func TestProxyNeverRendersProducers(t *testing.T) {
	tk := proxyToolkit(t, Policy{})
	var renders atomic.Int32
	register(tk, "counted", func() (any, error) { return &countingResult{Rows: []int{1, 2}, renders: &renders}, nil })
	got := capture(tk, "sink")

	res := call(t, tk, "proxy", map[string]any{
		"target_tool": "sink",
		"tool_args":   map[string]any{"x": producer("counted", "count")},
	})
	if res.IsErr {
		t.Fatalf("proxy failed: %s", res.Text)
	}
	if n := renders.Load(); n != 0 {
		t.Fatalf("proxy rendered a producer's result %d time(s)", n)
	}
	if (*got)["x"] != 2.0 {
		t.Fatalf("consumer got %#v, want the row count 2", (*got)["x"])
	}

	res = call(t, tk, "counted", nil)
	if n := renders.Load(); n != 1 || res.Text != "rendered" {
		t.Fatalf("a top-level call must render once: %d render(s), text %q", n, res.Text)
	}

	// The consumer's own result crosses the wire, so it is rendered too.
	res = call(t, tk, "proxy", map[string]any{"target_tool": "counted", "tool_args": map[string]any{}})
	if n := renders.Load(); n != 2 || res.Text != "rendered" {
		t.Fatalf("the unit's result must render once: %d render(s), text %q", n, res.Text)
	}
}

// What each transform delivers to a consumer: the shapes json.Unmarshal
// would have given it, and dense floats from matrix and vector.
func TestProxyHandoffShapes(t *testing.T) {
	type leaf struct {
		Slope float64 `json:"slope"`
		Tags  []string
	}
	tk := proxyToolkit(t, Policy{})
	register(tk, "table", func() (any, error) {
		return &Result{Columns: []string{"id", "v"}, Rows: [][]any{{int64(1), 2.5}, {int64(1) << 40, nil}}}, nil
	})
	register(tk, "empty", func() (any, error) { return &Result{Columns: []string{"id"}}, nil })
	register(tk, "message", func() (any, error) { return &Result{Message: "INSERT 0 1"}, nil })
	register(tk, "nothing", func() (any, error) { return nil, nil })
	register(tk, "object", func() (any, error) {
		return map[string]any{"n": 3, "names": []string{"a"}, "m": [][]float64{{1}}, "leaf": &leaf{Slope: 2, Tags: []string{"t"}}}, nil
	})
	got := capture(tk, "sink")

	big := float64(int64(1) << 40)
	cases := []struct {
		tool, transform string
		want            any
	}{
		{"table", "identity", map[string]any{"columns": []any{"id", "v"}, "rows": []any{[]any{1.0, 2.5}, []any{big, nil}}}},
		{"table", "", map[string]any{"columns": []any{"id", "v"}, "rows": []any{[]any{1.0, 2.5}, []any{big, nil}}}},
		{"table", "rows", []any{[]any{1.0, 2.5}, []any{big, nil}}},
		{"table", "column:id", []any{1.0, big}},
		{"table", "first", []any{1.0, 2.5}},
		{"table", "flatten", []any{1.0, 2.5, big, nil}},
		{"table", "count", 2.0},
		{"table", "field:columns", []any{"id", "v"}},
		{"table", "matrix:id", [][]float64{{1}, {big}}},
		{"table", "vector:id", []float64{1, big}},
		{"empty", "identity", map[string]any{"columns": []any{"id"}, "rows": nil}},
		{"empty", "count", 0.0},
		{"message", "identity", "INSERT 0 1"},
		{"nothing", "identity", "OK"},
		{"object", "field:n", 3.0},
		{"object", "field:names", []any{"a"}},
		{"object", "field:m", [][]float64{{1}}},
		{"object", "field:leaf", map[string]any{"slope": 2.0, "Tags": []any{"t"}}},
	}
	for _, c := range cases {
		res := call(t, tk, "proxy", map[string]any{
			"target_tool": "sink",
			"tool_args":   map[string]any{"x": producer(c.tool, c.transform), "plain": "kept"},
		})
		if res.IsErr {
			t.Errorf("%s|%s: %s", c.tool, c.transform, res.Text)
			continue
		}
		if x := (*got)["x"]; !reflect.DeepEqual(x, c.want) {
			t.Errorf("%s|%s: consumer got %#v, want %#v", c.tool, c.transform, x, c.want)
		}
		if (*got)["plain"] != "kept" {
			t.Errorf("%s|%s: plain argument lost: %#v", c.tool, c.transform, *got)
		}
	}
}

// A producer that bridges to another toolkit returns that server's encoded
// result; its Data did cross a wire and is decoded (examples/multisource).
func TestProxyBridgeProducer(t *testing.T) {
	remote := proxyToolkit(t, Policy{})
	tk := proxyToolkit(t, Policy{})
	tk.Registry().Register(&mcp.Tool{
		Name: "remote_select",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			res, err := remote.Client().CallTool(ctx, "select", args)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	})
	got := capture(tk, "sink")
	bridge := func(sql string) map[string]any {
		return map[string]any{
			"target_tool": "sink",
			"tool_args": map[string]any{"prices": map[string]any{
				"__tool__": "remote_select", "__args__": map[string]any{"sql": sql}, "__transform__": "vector:price",
			}},
		}
	}
	res := call(t, tk, "proxy", bridge("SELECT price FROM items ORDER BY id"))
	if res.IsErr {
		t.Fatalf("bridge failed: %s", res.Text)
	}
	if want := []float64{19.99, 49.5, 89}; !reflect.DeepEqual((*got)["prices"], want) {
		t.Fatalf("consumer got %#v, want %v", (*got)["prices"], want)
	}

	res = call(t, tk, "proxy", bridge("SELECT price FROM nope"))
	if !res.IsErr || !strings.Contains(res.Text, `producer "remote_select" failed: table "nope" does not exist`) {
		t.Fatalf("a bridged error result must surface as a producer failure, got %q", res.Text)
	}
}

// A tool may hand back scalar or ragged rows; a transform that indexes past a
// row's end reports the row and its width.
func TestTransformShortRows(t *testing.T) {
	scalarRows := map[string]any{"columns": []any{"a", "b"}, "rows": []any{1.0, 2.0}}
	ragged := map[string]any{"columns": []any{"a", "b"}, "rows": []any{[]any{1.0, 2.0}, []any{3.0}}}
	emptyRow := map[string]any{"columns": []any{"a"}, "rows": []any{[]any{}}}
	cases := []struct {
		expr string
		v    any
		want string
	}{
		{"column:b", scalarRows, "row 0 has 1 value(s)"},
		{"column:b", ragged, "row 1 has 1 value(s)"},
		{"matrix:a,b", ragged, "row 1 has 1 value(s)"},
		{"matrix", ragged, "row 1 has 1 value(s)"},
		{"vector:b", ragged, "row 1 has 1 value(s)"},
		{"vector", emptyRow, "row 0 has 0 value(s)"},
	}
	for _, c := range cases {
		_, err := ApplyTransform(c.expr, c.v)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("transform %q: got error %v, want one containing %q", c.expr, err, c.want)
		}
	}
	// In-range columns of the same values still work.
	if got, err := ApplyTransform("vector:a", ragged); err != nil || !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Errorf("vector:a over ragged rows = %v, %v", got, err)
	}
}

// With several failing producers the error the model reads names the lowest
// argument, however the failures were ordered in time.
func TestProxyErrorOrderIsDeterministic(t *testing.T) {
	for _, slow := range []string{"a", "b"} {
		tk := proxyToolkit(t, Policy{})
		for _, name := range []string{"a", "b"} {
			delay := time.Millisecond
			if name == slow {
				delay = 30 * time.Millisecond
			}
			register(tk, "fail_"+name, func() (any, error) {
				time.Sleep(delay)
				return nil, errors.New("broke " + name)
			})
		}
		capture(tk, "sink")
		for i := 0; i < 5; i++ {
			res := call(t, tk, "proxy", map[string]any{
				"target_tool": "sink",
				"tool_args": map[string]any{
					"a": producer("fail_a", ""),
					"b": producer("fail_b", ""),
				},
			})
			want := `ERROR: proxy: argument "a": producer "fail_a" failed: broke a`
			if !res.IsErr || res.Text != want {
				t.Fatalf("slow producer %s: got %q, want %q", slow, res.Text, want)
			}
		}
	}
}

// A re-introduced per-cell box, text render or encode on the hand-off path
// costs several objects per row; the typed path costs a constant.
func TestProxyHandoffAllocations(t *testing.T) {
	const rows = 4000
	e := sqldb.NewEngine("alloc")
	e.Grants().GrantAll("u", "*")
	tk := New(NewSQLDBConn(e, "u"), Policy{DisableParallelProxy: true})
	table := &Result{Columns: []string{"a", "b", "c", "y"}}
	for i := 0; i < rows; i++ {
		table.Rows = append(table.Rows, []any{int64(i), float64(i) / 2, float64(i * 3), float64(i)})
	}
	register(tk, "table", func() (any, error) { return table, nil })
	capture(tk, "sink")
	tool, _ := tk.Registry().Get("proxy")
	args := map[string]any{
		"target_tool": "sink",
		"tool_args": map[string]any{
			"features": producer("table", "matrix:a,b,c"),
			"target":   producer("table", "vector:y"),
		},
	}
	ctx := context.Background()
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := tool.Handler(ctx, args); err != nil {
			t.Fatal(err)
		}
	})
	// One []float64 per matrix row, and a constant for the rest.
	if perRow := perRun / rows; perRow > 1.1 {
		t.Fatalf("a two-producer matrix+vector unit allocates %.0f objects for %d rows (%.2f per row)", perRun, rows, perRow)
	}
}
