package pgmcp

import (
	"context"
	"strings"
	"testing"

	"bridgescope/internal/core"
	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

func baselineClient(t *testing.T, withSchema bool) (*mcp.Client, *sqldb.Engine) {
	t.Helper()
	e := sqldb.NewEngine("base")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	root.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	e.Grants().Grant("u", sqldb.ActionSelect, "t")
	tk := New(core.NewSQLDBConn(e, "u"), Options{WithSchemaTool: withSchema})
	return mcp.NewClient(mcp.NewServer(tk.Registry())), e
}

func TestToolSurface(t *testing.T) {
	full, _ := baselineClient(t, true)
	tools, err := full.ListTools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tools) != 2 || tools[0].Name != "get_schema" || tools[1].Name != "execute_sql" {
		t.Fatalf("PG-MCP must expose exactly get_schema + execute_sql, got %v", tools)
	}
	minus, _ := baselineClient(t, false)
	tools, _ = minus.ListTools(context.Background())
	if len(tools) != 1 || tools[0].Name != "execute_sql" {
		t.Fatalf("PG-MCP- must expose only execute_sql, got %v", tools)
	}
}

func TestSchemaDumpHasNoAnnotations(t *testing.T) {
	client, _ := baselineClient(t, true)
	res, err := client.CallTool(context.Background(), "get_schema", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "CREATE TABLE t") {
		t.Fatalf("schema dump missing table: %s", res.Text)
	}
	if strings.Contains(res.Text, "Access:") {
		t.Fatalf("baseline must not annotate privileges: %s", res.Text)
	}
}

func TestExecuteSQLAnyStatement(t *testing.T) {
	client, _ := baselineClient(t, true)
	ctx := context.Background()
	res, err := client.CallTool(ctx, "execute_sql", map[string]any{"sql": "SELECT COUNT(*) FROM t"})
	if err != nil || res.IsErr {
		t.Fatalf("select failed: %v %s", err, res.Text)
	}
	// No tool-side gating: unauthorized writes reach the engine and come
	// back as engine errors.
	res, err = client.CallTool(ctx, "execute_sql", map[string]any{"sql": "DELETE FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsErr || !strings.Contains(res.Text, "permission denied") {
		t.Fatalf("unauthorized delete should yield engine denial: %s", res.Text)
	}
}

func TestInformationSchemaIntrospection(t *testing.T) {
	client, _ := baselineClient(t, false)
	res, err := client.CallTool(context.Background(), "execute_sql", map[string]any{
		"sql": "SELECT table_name, column_name FROM information_schema.columns",
	})
	if err != nil || res.IsErr {
		t.Fatalf("introspection failed: %v %s", err, res.Text)
	}
	if !strings.Contains(res.Text, "CREATE TABLE t") {
		t.Fatalf("introspection should return catalog DDL: %s", res.Text)
	}
}

func TestMissingSQLArgument(t *testing.T) {
	client, _ := baselineClient(t, true)
	res, err := client.CallTool(context.Background(), "execute_sql", map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsErr {
		t.Fatalf("missing sql must error: %s", res.Text)
	}
}

// The baseline returns its database result through the same render point as
// BridgeScope's SQL tools, so the model reads the same bytes from both.
func TestExecuteSQLWireForm(t *testing.T) {
	client, _ := baselineClient(t, true)
	res, err := client.CallTool(context.Background(), "execute_sql", map[string]any{"sql": "SELECT id, v FROM t ORDER BY id"})
	if err != nil || res.IsErr {
		t.Fatalf("select failed: %v %s", err, res.Text)
	}
	if res.Text != "id | v\n1 | a\n2 | b\n(2 rows)" || string(res.Data) != `{"columns":["id","v"],"rows":[[1,"a"],[2,"b"]]}` {
		t.Fatalf("unexpected wire result: text %q data %s", res.Text, res.Data)
	}
}
