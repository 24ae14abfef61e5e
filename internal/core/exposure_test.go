package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bridgescope/internal/core"
	"bridgescope/internal/csvdb"
	"bridgescope/internal/sqldb"
)

var updateExposureGolden = flag.Bool("update-exposure-golden", false, "rewrite testdata/exposure_golden.json from this build's output")

// exposure is what one user under one policy is shown: the tool list in
// order, and the system prompt (its digest plus the lines after the
// protocol, which are the only part that varies).
type exposure struct {
	Tools        []string `json:"tools"`
	PromptSHA256 string   `json:"prompt_sha256"`
	PromptTail   string   `json:"prompt_tail"`
}

func storeEngine(t *testing.T) *sqldb.Engine {
	t.Helper()
	e := sqldb.NewEngine("store")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, category TEXT, price REAL)`)
	root.MustExec(`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT, amount REAL)`)
	root.MustExec(`CREATE TABLE secrets (id INT PRIMARY KEY, payload TEXT)`)
	return e
}

// TestExposureGolden holds selective exposure (paper §2.3) to the values
// captured at the commit before New decided it in one catalog pass: for each
// grant/policy shape, the tools listed, in order, and the system prompt.
func TestExposureGolden(t *testing.T) {
	sqlConn := func(grant func(g *sqldb.Grants)) func(*testing.T) core.Conn {
		return func(t *testing.T) core.Conn {
			e := storeEngine(t)
			grant(e.Grants())
			return core.NewSQLDBConn(e, "u")
		}
	}
	shapes := []struct {
		name   string
		conn   func(t *testing.T) core.Conn
		policy core.Policy
	}{
		{"no_grants", sqlConn(func(g *sqldb.Grants) {}), core.Policy{}},
		{"select_on_one_table", sqlConn(func(g *sqldb.Grants) { g.Grant("u", sqldb.ActionSelect, "sales") }), core.Policy{}},
		{"wildcard_all", sqlConn(func(g *sqldb.Grants) { g.GrantAll("u", "*") }), core.Policy{}},
		{"create_only", sqlConn(func(g *sqldb.Grants) { g.Grant("u", sqldb.ActionCreate, "*") }), core.Policy{}},
		{"superuser", sqlConn(func(g *sqldb.Grants) { g.SetSuperuser("u", true) }), core.Policy{}},
		{"only_writable_object_hidden", sqlConn(func(g *sqldb.Grants) {
			g.Grant("u", sqldb.ActionSelect, "items")
			g.GrantAll("u", "secrets")
		}), core.Policy{ObjectBlacklist: []string{"Secrets"}}},
		{"only_granted_object_not_whitelisted", sqlConn(func(g *sqldb.Grants) { g.GrantAll("u", "secrets") }),
			core.Policy{ObjectWhitelist: []string{"items", "sales"}}},
		{"tool_denylist", sqlConn(func(g *sqldb.Grants) { g.GrantAll("u", "*") }),
			core.Policy{ToolBlacklist: []string{"drop_table", "DELETE", "create_table"}}},
		{"tool_allowlist_select", sqlConn(func(g *sqldb.Grants) { g.GrantAll("u", "*") }),
			core.Policy{ToolWhitelist: []string{"select"}}},
		{"write_tools_denied", sqlConn(func(g *sqldb.Grants) { g.GrantAll("u", "*") }),
			core.Policy{ToolBlacklist: []string{"insert", "update", "delete", "create_table", "drop_table", "alter_table"}}},
		{"csvdb_update_on_one_file", func(t *testing.T) core.Conn {
			dir := t.TempDir()
			for name, body := range map[string]string{
				"orders.csv": "id,item,qty\n1,shirt,2\n2,jeans,1\n",
				"events.csv": "ts,kind\n100,start\n",
			} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			store, err := csvdb.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			store.Grants().Grant("u", sqldb.ActionSelect, "*")
			store.Grants().Grant("u", sqldb.ActionUpdate, "orders")
			return store.Conn("u")
		}, core.Policy{}},
	}

	got := map[string]exposure{}
	for _, s := range shapes {
		tk := core.New(s.conn(t), s.policy)
		tools, err := tk.Client().ListTools(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		x := exposure{Tools: []string{}}
		for _, ti := range tools {
			x.Tools = append(x.Tools, ti.Name)
		}
		prompt := tk.SystemPrompt()
		x.PromptSHA256 = fmt.Sprintf("%x", sha256.Sum256([]byte(prompt)))
		x.PromptTail = prompt[strings.LastIndex(prompt, "\n\n")+2:]
		got[s.name] = x
	}

	path := filepath.Join("testdata", "exposure_golden.json")
	if *updateExposureGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exposure
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(shapes) {
		t.Fatalf("golden has %d shapes, test has %d", len(want), len(shapes))
	}
	for _, s := range shapes {
		if !reflect.DeepEqual(got[s.name], want[s.name]) {
			t.Errorf("%s: exposure changed\n got: %+v\nwant: %+v", s.name, got[s.name], want[s.name])
		}
	}
}

// TestObjectDDLFollowsTheCatalog reads definitions through a second
// connection to the same engine right after each catalog change: whatever the
// engine remembers of rendered DDL, get_object prints the current catalog.
func TestObjectDDLFollowsTheCatalog(t *testing.T) {
	e := storeEngine(t)
	e.Grants().GrantAll("u", "*")
	writer := core.New(core.NewSQLDBConn(e, "u"), core.Policy{})
	reader := core.New(core.NewSQLDBConn(e, "u"), core.Policy{})
	exec := func(tool, sql string) {
		t.Helper()
		res, err := writer.Client().CallTool(context.Background(), tool, map[string]any{"sql": sql})
		if err != nil || res.IsErr {
			t.Fatalf("%s %q: %v %s", tool, sql, err, res.Text)
		}
	}
	txn := func(tool string) {
		t.Helper()
		res, err := writer.Client().CallTool(context.Background(), tool, nil)
		if err != nil || res.IsErr {
			t.Fatalf("%s: %v %s", tool, err, res.Text)
		}
	}
	object := func(name string) (string, bool) {
		t.Helper()
		res, err := reader.Client().CallTool(context.Background(), "get_object", map[string]any{"object": name})
		if err != nil {
			t.Fatal(err)
		}
		return res.Text, !res.IsErr
	}
	mustObject := func(name string) string {
		t.Helper()
		text, ok := object(name)
		if !ok {
			t.Fatalf("get_object(%s): %s", name, text)
		}
		return text
	}

	before := mustObject("secrets")
	if again := mustObject("secrets"); again != before {
		t.Fatalf("two reads of an unchanged catalog differ:\n%s\n%s", before, again)
	}
	if strings.Contains(before, "label") {
		t.Fatalf("unexpected column before ALTER:\n%s", before)
	}

	exec("alter_table", "ALTER TABLE secrets ADD COLUMN label TEXT")
	if after := mustObject("secrets"); !strings.Contains(after, "label TEXT") {
		t.Fatalf("ADD COLUMN not shown on the next call:\n%s", after)
	}

	exec("drop_table", "DROP TABLE secrets")
	if text, ok := object("secrets"); ok {
		t.Fatalf("dropped table still described:\n%s", text)
	}
	exec("create_table", "CREATE TABLE secrets (code TEXT PRIMARY KEY, weight REAL)")
	recreated := mustObject("secrets")
	if !strings.Contains(recreated, "code TEXT PRIMARY KEY") || strings.Contains(recreated, "payload") {
		t.Fatalf("re-created table shows old columns:\n%s", recreated)
	}

	// DDL undone by ROLLBACK: visible while the transaction is open (the
	// catalog is not versioned), gone again right after.
	txn("begin")
	exec("drop_table", "DROP TABLE secrets")
	exec("create_table", "CREATE TABLE scratch (n INT)")
	if _, ok := object("secrets"); ok {
		t.Fatal("table dropped in the open transaction still described")
	}
	if text := mustObject("scratch"); !strings.Contains(text, "n INT") {
		t.Fatalf("table created in the open transaction:\n%s", text)
	}
	txn("rollback")
	if restored := mustObject("secrets"); restored != recreated {
		t.Fatalf("rollback did not restore the definition:\n got: %s\nwant: %s", restored, recreated)
	}
	if text, ok := object("scratch"); ok {
		t.Fatalf("rolled-back table still described:\n%s", text)
	}

	// A privilege change moves the annotation line and nothing else.
	full := mustObject("items")
	e.Grants().RevokeAll("u", "*")
	e.Grants().Grant("u", sqldb.ActionSelect, "items")
	e.Grants().Grant("u", sqldb.ActionUpdate, "items")
	narrowed := mustObject("items")
	fullHead, fullBody, _ := strings.Cut(full, "\n")
	narrowHead, narrowBody, _ := strings.Cut(narrowed, "\n")
	if fullHead != "-- Access: True, Permissions: ALL" || narrowHead != "-- Access: True, Permissions: SELECT, UPDATE" {
		t.Fatalf("annotation lines: %q then %q", fullHead, narrowHead)
	}
	if fullBody != narrowBody {
		t.Fatalf("a grant change altered the definition:\n%s\n%s", fullBody, narrowBody)
	}
	e.Grants().RevokeAll("u", "items")
	if text := mustObject("items"); text != "-- Access: False\nCREATE TABLE items (...);" {
		t.Fatalf("revoked object: %q", text)
	}
}
