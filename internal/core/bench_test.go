package core

import (
	"context"
	"fmt"
	"testing"

	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
)

func benchToolkit(b *testing.B) *Toolkit {
	b.Helper()
	e := sqldb.NewEngine("bench")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE data (id INT PRIMARY KEY, grp INT, val REAL)`)
	batch := ""
	for i := 0; i < 2000; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d, %f)", i, i%20, float64(i))
		if (i+1)%500 == 0 {
			root.MustExec("INSERT INTO data VALUES " + batch)
			batch = ""
		}
	}
	e.Grants().GrantAll("u", "*")
	return New(NewSQLDBConn(e, "u"), Policy{})
}

func BenchmarkGetSchemaTool(b *testing.B) {
	tk := benchToolkit(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.Client().CallTool(ctx, "get_schema", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectToolOverhead(b *testing.B) {
	// Measures verification + MCP round-trip + execution for a small query.
	tk := benchToolkit(b)
	ctx := context.Background()
	args := map[string]any{"sql": "SELECT COUNT(*) FROM data WHERE grp = 3"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tk.Client().CallTool(ctx, "select", args)
		if err != nil || res.IsErr {
			b.Fatalf("%v %s", err, res.Text)
		}
	}
}

func BenchmarkProxyTwoProducers(b *testing.B) {
	tk := benchToolkit(b)
	tk.Registry().Register(&mcp.Tool{
		Name: "pair",
		Handler: func(ctx context.Context, args map[string]any) (any, error) {
			return map[string]any{"ok": true}, nil
		},
	})
	ctx := context.Background()
	args := map[string]any{
		"target_tool": "pair",
		"tool_args": map[string]any{
			"a": map[string]any{
				"__tool__":      "select",
				"__args__":      map[string]any{"sql": "SELECT val FROM data WHERE grp = 1"},
				"__transform__": "vector:val",
			},
			"b": map[string]any{
				"__tool__":      "select",
				"__args__":      map[string]any{"sql": "SELECT val FROM data WHERE grp = 2"},
				"__transform__": "vector:val",
			},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tk.Client().CallTool(ctx, "proxy", args)
		if err != nil || res.IsErr {
			b.Fatalf("%v %s", err, res.Text)
		}
	}
}

func BenchmarkTransformMatrix(b *testing.B) {
	rows := make([]any, 1000)
	for i := range rows {
		rows[i] = []any{float64(i), float64(i * 2), float64(i * 3)}
	}
	v := map[string]any{"columns": []any{"a", "b", "c"}, "rows": rows}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyTransform("matrix:a,c", v); err != nil {
			b.Fatal(err)
		}
	}
}

// adminBenchToolkit is the widest toolkit New builds: all 14 tools.
func adminBenchToolkit(tb testing.TB) *Toolkit {
	tb.Helper()
	e := sqldb.NewEngine("bench")
	root := e.NewSession("root")
	for _, name := range []string{"items", "sales", "customers", "audit_log", "notes"} {
		root.MustExec(fmt.Sprintf(`CREATE TABLE %s (id INT PRIMARY KEY, name TEXT NOT NULL, amount REAL)`, name))
	}
	e.Grants().GrantAll("admin", "*")
	return New(NewSQLDBConn(e, "admin"), Policy{})
}

// BenchmarkListTools is one tools/list round trip over the widest list a
// benchmark task sees (the admin's tools plus the six ML tools): join the
// pre-encoded entries, decode them at the client.
func BenchmarkListTools(b *testing.B) {
	tk := adminBenchToolkit(b)
	mltools.NewServer(7).RegisterTools(tk.Registry())
	client := tk.Client()
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := client.ListTools(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewToolkit is what every agent task pays before its first call:
// one catalog pass, the exposure decisions, handlers bound to the static
// definitions. readonly is the user whose write actions are each probed on
// every table.
func BenchmarkNewToolkit(b *testing.B) {
	e := adminBenchToolkit(b).Conn().(*SQLDBConn).Session().Engine()
	e.Grants().Grant("readonly", sqldb.ActionSelect, "*")
	for _, user := range []string{"admin", "readonly"} {
		b.Run(user, func(b *testing.B) {
			conn := NewSQLDBConn(e, user)
			b.ReportAllocs()
			for b.Loop() {
				New(conn, Policy{})
			}
		})
	}
}

// TestListToolsAllocations keeps the tool list off the map trees it used to
// be re-marshalled from and re-parsed into: 550 objects a listing then, and
// three per tool (name, description, schema bytes) plus the envelope now.
func TestListToolsAllocations(t *testing.T) {
	client, ctx := adminBenchToolkit(t).Client(), context.Background()
	tools, err := client.ListTools(ctx)
	if err != nil || len(tools) != 14 {
		t.Fatalf("admin toolkit lists %d tools: %v", len(tools), err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.ListTools(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Fatalf("ListTools on the 14-tool admin toolkit allocates %.0f objects, want < 100", allocs)
	}
	t.Logf("ListTools: %.0f allocations for 14 tools", allocs)
}
