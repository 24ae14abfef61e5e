package pgmcp

import (
	"context"
	"errors"
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

// PG-MCP has no tool-side verification, so the engine's privilege check is
// the only gate: statements that read secrets only from a subquery in SET,
// VALUES, ORDER BY, LIMIT, OFFSET, JOIN ... ON or GROUP BY, or an ungranted
// column only in JOIN ... ON, must come back as engine permission errors.
func TestEngineRefusesReadsInEveryExpressionSlot(t *testing.T) {
	e := sqldb.NewEngine("store")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, category TEXT, price REAL)`)
	root.MustExec(`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT, amount REAL)`)
	root.MustExec(`CREATE TABLE secrets (id INT PRIMARY KEY, payload TEXT)`)
	root.MustExec(`INSERT INTO items VALUES (1, 'shirt', 'women', 19.99)`)
	root.MustExec(`INSERT INTO secrets VALUES (1, 'classified')`)
	for _, tbl := range []string{"items", "sales"} {
		e.Grants().GrantAll("u", tbl)
		e.Grants().GrantAll("c", tbl)
	}
	e.Grants().GrantColumns("c", sqldb.ActionSelect, "secrets", []string{"id"})
	refused := func(user, sql, object string) {
		t.Helper()
		h, _ := New(core.NewSQLDBConn(e, user), Options{}).Registry().Get("execute_sql")
		_, err := h.Handler(context.Background(), map[string]any{"sql": sql})
		var pe *sqldb.PermissionError
		if !errors.As(err, &pe) || pe.Object != object {
			t.Errorf("%s: got %v, want a permission error on %s", sql, err, object)
		}
	}
	for _, sql := range []string{
		`UPDATE items SET name = (SELECT payload FROM secrets WHERE id = 1) WHERE id = 1`,
		`INSERT INTO items VALUES (9, (SELECT payload FROM secrets WHERE id = 1), 'x', 1.0)`,
		`SELECT id FROM items ORDER BY (SELECT COUNT(*) FROM secrets)`,
		`SELECT id FROM items LIMIT (SELECT COUNT(*) FROM secrets)`,
		`SELECT id FROM items LIMIT 10 OFFSET (SELECT COUNT(*) FROM secrets)`,
		`SELECT i.id FROM items i JOIN sales s ON s.item_id = i.id AND i.name IN (SELECT payload FROM secrets)`,
		`SELECT COUNT(*) FROM items GROUP BY (SELECT payload FROM secrets WHERE id = 1)`,
	} {
		refused("u", sql, "secrets")
	}
	refused("c", `SELECT s.id FROM items i JOIN secrets s ON i.id = s.id AND s.payload = 'classified'`, "secrets.payload")
}
