package core

import (
	"context"
	"strings"
	"testing"

	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

func newStoreEngine(t *testing.T) *sqldb.Engine {
	t.Helper()
	e := sqldb.NewEngine("store")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, category TEXT, price REAL)`)
	root.MustExec(`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT, amount REAL)`)
	root.MustExec(`CREATE TABLE secrets (id INT PRIMARY KEY, payload TEXT)`)
	root.MustExec(`INSERT INTO items VALUES (1, 'shirt', 'women', 19.99), (2, 'jeans', 'men', 49.5), (3, 'dress', 'women', 89.0)`)
	root.MustExec(`INSERT INTO sales VALUES (10, 1, 2, 39.98), (11, 2, 1, 49.5)`)
	root.MustExec(`INSERT INTO secrets VALUES (1, 'classified')`)
	return e
}

func adminToolkit(t *testing.T, e *sqldb.Engine, policy Policy) *Toolkit {
	t.Helper()
	e.Grants().GrantAll("admin", "*")
	e.Grants().Grant("admin", sqldb.ActionCreate, "*")
	return New(NewSQLDBConn(e, "admin"), policy)
}

func call(t *testing.T, tk *Toolkit, tool string, args map[string]any) mcp.CallResult {
	t.Helper()
	res, err := tk.Client().CallTool(context.Background(), tool, args)
	if err != nil {
		t.Fatalf("CallTool(%s): %v", tool, err)
	}
	return res
}

func TestToolExposureByPrivilege(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	reader := New(NewSQLDBConn(e, "reader"), Policy{})
	tools := reader.ExposedSQLTools()
	if len(tools) != 1 || tools[0] != "select" {
		t.Fatalf("read-only user should see only select, got %v", tools)
	}
	// No write tool -> no transaction tools either.
	if _, ok := reader.Registry().Get("begin"); ok {
		t.Fatal("read-only user must not receive transaction tools")
	}
	admin := adminToolkit(t, e, Policy{})
	if got := len(admin.ExposedSQLTools()); got != 7 {
		t.Fatalf("admin should see all 7 SQL tools, got %d: %v", got, admin.ExposedSQLTools())
	}
	if _, ok := admin.Registry().Get("begin"); !ok {
		t.Fatal("admin must receive transaction tools")
	}
}

func TestToolBlacklist(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{ToolBlacklist: []string{"drop_table", "delete"}})
	for _, name := range []string{"drop_table", "delete"} {
		if _, ok := tk.Registry().Get(name); ok {
			t.Fatalf("blacklisted tool %q exposed", name)
		}
	}
	if _, ok := tk.Registry().Get("insert"); !ok {
		t.Fatal("non-blacklisted tool missing")
	}
}

func TestToolWhitelist(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{ToolWhitelist: []string{"select"}})
	if got := tk.ExposedSQLTools(); len(got) != 1 || got[0] != "select" {
		t.Fatalf("whitelist not applied: %v", got)
	}
}

func TestSchemaAnnotations(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	tk := New(NewSQLDBConn(e, "reader"), Policy{})
	res := call(t, tk, "get_schema", nil)
	if !strings.Contains(res.Text, "-- Access: True, Permissions: SELECT") {
		t.Fatalf("missing select annotation:\n%s", res.Text)
	}
	// Tables without privileges appear as Access: False with structure hidden.
	if !strings.Contains(res.Text, "-- Access: False\nCREATE TABLE sales (...);") {
		t.Fatalf("missing access-false annotation:\n%s", res.Text)
	}
}

func TestSchemaObjectBlacklistHides(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{ObjectBlacklist: []string{"secrets"}})
	res := call(t, tk, "get_schema", nil)
	if strings.Contains(res.Text, "secrets") {
		t.Fatalf("blacklisted object leaked into schema:\n%s", res.Text)
	}
	obj := call(t, tk, "get_object", map[string]any{"object": "secrets"})
	if !obj.IsErr || !strings.Contains(obj.Text, "blocked by the user security policy") {
		t.Fatalf("get_object must refuse blacklisted object, got %q", obj.Text)
	}
}

func TestHierarchicalSchema(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{SchemaThreshold: 2})
	res := call(t, tk, "get_schema", nil)
	if !strings.Contains(res.Text, "get_object") {
		t.Fatalf("expected hierarchical listing:\n%s", res.Text)
	}
	if strings.Contains(res.Text, "PRIMARY KEY") {
		t.Fatalf("hierarchical listing must not include DDL:\n%s", res.Text)
	}
	obj := call(t, tk, "get_object", map[string]any{"object": "items"})
	if !strings.Contains(obj.Text, "CREATE TABLE items") {
		t.Fatalf("get_object must return DDL:\n%s", obj.Text)
	}
}

func TestGetValueRanking(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{})
	res := call(t, tk, "get_value", map[string]any{
		"table": "items", "column": "category", "key": "women's wear", "k": float64(2),
	})
	if res.IsErr {
		t.Fatalf("get_value failed: %s", res.Text)
	}
	// "women" must rank first for "women's wear".
	if !strings.Contains(res.Text, "women") {
		t.Fatalf("expected women in exemplars: %s", res.Text)
	}
	idx := strings.Index(res.Text, ": ")
	ranked := res.Text[idx+2:]
	if !strings.HasPrefix(ranked, "women") {
		t.Fatalf("women should rank first: %s", ranked)
	}
}

func TestGetValueRequiresSelect(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("writeronly", sqldb.ActionInsert, "items")
	tk := New(NewSQLDBConn(e, "writeronly"), Policy{})
	res := call(t, tk, "get_value", map[string]any{
		"table": "items", "column": "category", "key": "women",
	})
	if !res.IsErr || !strings.Contains(res.Text, "permission denied") {
		t.Fatalf("get_value without SELECT must fail, got %q", res.Text)
	}
}

func TestStatementTypeEnforcement(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{})
	cases := map[string]string{
		"select": "DELETE FROM items",
		"insert": "SELECT * FROM items",
		"update": "DROP TABLE items",
		"delete": "INSERT INTO items (id, name) VALUES (9, 'x')",
	}
	for tool, sql := range cases {
		res := call(t, tk, tool, map[string]any{"sql": sql})
		if !res.IsErr || !strings.Contains(res.Text, "only accepts") {
			t.Fatalf("%s must reject %q, got %q", tool, sql, res.Text)
		}
	}
	// Matching statements pass.
	ok := call(t, tk, "select", map[string]any{"sql": "SELECT COUNT(*) FROM items"})
	if ok.IsErr {
		t.Fatalf("select failed: %s", ok.Text)
	}
}

func TestObjectLevelVerification(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	tk := New(NewSQLDBConn(e, "reader"), Policy{})
	res := call(t, tk, "select", map[string]any{"sql": "SELECT * FROM secrets"})
	if !res.IsErr || !strings.Contains(res.Text, "verified before execution") {
		t.Fatalf("verification must intercept unauthorized table, got %q", res.Text)
	}
	// Joins against unauthorized tables are intercepted too.
	res = call(t, tk, "select", map[string]any{
		"sql": "SELECT items.name FROM items, secrets WHERE items.id = secrets.id",
	})
	if !res.IsErr {
		t.Fatalf("join with unauthorized table must fail, got %q", res.Text)
	}
}

func TestVerificationDisabledFallsThroughToEngine(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	tk := New(NewSQLDBConn(e, "reader"), Policy{DisableVerification: true})
	res := call(t, tk, "select", map[string]any{"sql": "SELECT * FROM secrets"})
	// The engine still rejects it — but with its own error, proving the
	// statement reached the database.
	if !res.IsErr || strings.Contains(res.Text, "verified before execution") {
		t.Fatalf("with verification off the engine must reject, got %q", res.Text)
	}
	if !strings.Contains(res.Text, "permission denied") {
		t.Fatalf("expected engine permission error, got %q", res.Text)
	}
}

func TestTransactionToolsRoundTrip(t *testing.T) {
	e := newStoreEngine(t)
	tk := adminToolkit(t, e, Policy{})
	ctx := context.Background()
	mustOK := func(tool string, args map[string]any) {
		t.Helper()
		res, err := tk.Client().CallTool(ctx, tool, args)
		if err != nil || res.IsErr {
			t.Fatalf("%s failed: %v %s", tool, err, res.Text)
		}
	}
	mustOK("begin", nil)
	mustOK("insert", map[string]any{"sql": "INSERT INTO items (id, name, category, price) VALUES (9, 'belt', 'men', 15.0)"})
	mustOK("rollback", nil)
	res := call(t, tk, "select", map[string]any{"sql": "SELECT COUNT(*) FROM items"})
	if !strings.Contains(res.Text, "3") {
		t.Fatalf("rollback did not revert insert: %s", res.Text)
	}
	mustOK("begin", nil)
	mustOK("insert", map[string]any{"sql": "INSERT INTO items (id, name, category, price) VALUES (9, 'belt', 'men', 15.0)"})
	mustOK("commit", nil)
	res = call(t, tk, "select", map[string]any{"sql": "SELECT COUNT(*) FROM items"})
	if !strings.Contains(res.Text, "4") {
		t.Fatalf("commit lost insert: %s", res.Text)
	}
}

func TestSystemPromptReflectsTools(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	reader := New(NewSQLDBConn(e, "reader"), Policy{})
	p := reader.SystemPrompt()
	if !strings.Contains(p, "select") || strings.Contains(p, "insert,") {
		t.Fatalf("prompt should list only select: %s", p)
	}
	admin := adminToolkit(t, e, Policy{})
	if !strings.Contains(admin.SystemPrompt(), "insert") {
		t.Fatal("admin prompt should list write tools")
	}
}

func TestConnExplain(t *testing.T) {
	e := newStoreEngine(t)
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	var conn Conn = NewSQLDBConn(e, "reader")

	plan, err := conn.Explain("SELECT name FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Index Scan on items using primary key (id = 2)") {
		t.Fatalf("expected pk index scan in plan:\n%s", plan)
	}
	if !strings.Contains(plan, "Project: name") {
		t.Fatalf("expected projection stage in plan:\n%s", plan)
	}

	// Explain enforces the statement's privileges like execution would.
	if _, err := conn.Explain("SELECT * FROM secrets"); err == nil {
		t.Fatal("Explain must enforce SELECT privilege")
	} else if !conn.IsPermissionDenied(err) {
		t.Fatalf("want permission error, got %v", err)
	}

	// An EXPLAIN prefix in the SQL itself is accepted (not double-wrapped).
	if _, err := conn.Explain("EXPLAIN SELECT name FROM items"); err != nil {
		t.Fatalf("Explain on EXPLAIN-prefixed sql: %v", err)
	}
}

// probeCounter counts the catalog reads and privilege probes New makes.
type probeCounter struct {
	Conn
	lists, probes int
}

func (c *probeCounter) ListObjects() []ObjectInfo {
	c.lists++
	return c.Conn.ListObjects()
}

func (c *probeCounter) HasPrivilege(action, object string) bool {
	c.probes++
	return c.Conn.HasPrivilege(action, object)
}

// New reads the catalog once, and a user whose grants sit on the last table
// is asked about every table only until that one answers.
func TestNewMakesOneCatalogPass(t *testing.T) {
	e := newStoreEngine(t) // items, sales, secrets
	e.Grants().GrantAll("clerk", "secrets")
	e.Grants().Grant("reader", sqldb.ActionSelect, "*")
	for user, want := range map[string]struct {
		probes int
		tools  string
	}{
		// select: 3 probes to reach secrets; then 5 actions x 1 probe, CREATE x 1.
		"clerk": {9, "alter_table delete drop_table insert select update"},
		// select answers on the first table; 5 actions x 3 tables, CREATE x 1.
		"reader": {17, "select"},
		"nobody": {19, ""},
	} {
		conn := &probeCounter{Conn: NewSQLDBConn(e, user)}
		tk := New(conn, Policy{})
		if conn.lists != 1 || conn.probes != want.probes {
			t.Errorf("%s: %d catalog reads and %d privilege probes, want 1 and %d", user, conn.lists, conn.probes, want.probes)
		}
		if got := strings.Join(tk.ExposedSQLTools(), " "); got != want.tools {
			t.Errorf("%s: exposed %q, want %q", user, got, want.tools)
		}
	}
}
