package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
)

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json from this build's output")

// wireCall is one tools/call in both directions: the request a transport
// would carry and what a top-level client receives back.
type wireCall struct {
	Request string `json:"request"`
	Text    string `json:"text"`
	Data    string `json:"data"`
	IsErr   bool   `json:"is_err,omitempty"`
}

// wireGolden is testdata/wire_golden.json: every call case, and the
// tools/list result for three users.
type wireGolden struct {
	Calls     map[string]wireCall `json:"calls"`
	ToolsList map[string]string   `json:"tools_list"`
}

// wireRequest is the tools/call request with the given id as the client
// encodes it: one json.Marshal of the typed envelope.
func wireRequest(t *testing.T, id int64, name string, args map[string]any) string {
	t.Helper()
	raw, err := json.Marshal(&mcp.Request{JSONRPC: "2.0", ID: id, Method: "tools/call",
		Params: &mcp.CallParams{Name: name, Arguments: args}})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// wireToolsList is the tools/list result a client of reg receives.
func wireToolsList(t *testing.T, reg *mcp.Registry) string {
	t.Helper()
	resp := mcp.NewServer(reg).Handle(context.Background(), &mcp.Request{JSONRPC: "2.0", ID: 1, Method: "tools/list"})
	if resp.Error != nil {
		t.Fatal(resp.Error)
	}
	return string(resp.Result)
}

// TestWireGolden pins the bytes that cross the tool protocol in both
// directions: each request, each result a top-level client (and so the
// model) receives, and the tool list. The results in
// testdata/wire_golden.json were captured at the commit before the proxy
// stopped encoding hand-offs, the requests and tool lists at the commit
// before tool schemas were held encoded; whatever changes inside the
// toolkit, these bytes may not.
func TestWireGolden(t *testing.T) {
	e := newStoreEngine(t)
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE wide (id INT PRIMARY KEY, big INT, note TEXT, ratio REAL, ok BOOLEAN)`)
	root.MustExec(`INSERT INTO wide VALUES (1, 4294967296123, NULL, 0.5, true), (2, -9007199254740993, 'a "quoted" <note>', NULL, false), (3, NULL, 'é', 1e21, NULL)`)
	root.MustExec(`CREATE TABLE homes (id INT PRIMARY KEY, rooms INT, area REAL, price REAL)`)
	var vals []string
	for i := 0; i < 40; i++ {
		rooms, area := 1+i%5, 40+float64(i*7%53)
		vals = append(vals, fmt.Sprintf("(%d, %d, %g, %g)", i, rooms, area, 1000*float64(rooms)+35.5*area+float64(i%3)))
	}
	root.MustExec("INSERT INTO homes VALUES " + strings.Join(vals, ", "))
	tk := adminToolkit(t, e, Policy{})
	mltools.NewServer(7).RegisterTools(tk.Registry())

	sel := func(sql, transform string) map[string]any {
		return map[string]any{"__tool__": "select", "__args__": map[string]any{"sql": sql}, "__transform__": transform}
	}
	const homes = "SELECT rooms, area, price FROM homes ORDER BY id"
	cases := []struct {
		name, tool string
		args       map[string]any
	}{
		{"select_rows", "select", map[string]any{"sql": "SELECT * FROM items ORDER BY id"}},
		{"select_zero_rows", "select", map[string]any{"sql": "SELECT id, name FROM items WHERE id < 0"}},
		{"select_nulls_and_big_ints", "select", map[string]any{"sql": "SELECT * FROM wide ORDER BY id"}},
		{"insert", "insert", map[string]any{"sql": "INSERT INTO items VALUES (4, 'socks', 'men', 4.25)"}},
		{"select_error", "select", map[string]any{"sql": "SELECT * FROM nope"}},
		{"get_value", "get_value", map[string]any{"table": "items", "column": "name", "key": "shirts", "k": 2.0}},
		{"zscore_normalize", "zscore_normalize", map[string]any{"features": []any{[]any{1.0, 10.0}, []any{2.0, 30.0}, []any{4.0, 20.0}}}},
		{"proxy_level2", "proxy", map[string]any{
			"target_tool": "train_linear_regression",
			"tool_args": map[string]any{
				"features": map[string]any{
					"__tool__":      "zscore_normalize",
					"__args__":      map[string]any{"features": sel(homes, "matrix:rooms,area")},
					"__transform__": "lambda x: x",
				},
				"target": sel(homes, "vector:price"),
			},
		}},
		{"proxy_rows_to_trend", "proxy", map[string]any{
			"target_tool": "trend_analyze",
			"tool_args":   map[string]any{"series": sel("SELECT qty FROM sales ORDER BY order_id", "column:qty")},
		}},
	}
	got := wireGolden{Calls: map[string]wireCall{}, ToolsList: map[string]string{}}
	// Listed before the calls run: a tool list does not depend on the data.
	e.Grants().Grant("reader", sqldb.ActionSelect, "items")
	got.ToolsList["admin_with_ml_tools"] = wireToolsList(t, tk.Registry())
	got.ToolsList["select_only"] = wireToolsList(t, New(NewSQLDBConn(e, "reader"), Policy{}).Registry())
	got.ToolsList["no_grants"] = wireToolsList(t, New(NewSQLDBConn(e, "nobody"), Policy{}).Registry())
	for i, c := range cases {
		// The toolkit's client numbers its requests from 1.
		req := wireRequest(t, int64(i+1), c.tool, c.args)
		res := call(t, tk, c.tool, c.args)
		got.Calls[c.name] = wireCall{Request: req, Text: res.Text, Data: string(res.Data), IsErr: res.IsErr}
	}

	path := filepath.Join("testdata", "wire_golden.json")
	if *updateWireGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want wireGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Calls) != len(cases) || len(want.ToolsList) != len(got.ToolsList) {
		t.Fatalf("golden has %d calls and %d tool lists, test has %d and %d",
			len(want.Calls), len(want.ToolsList), len(cases), len(got.ToolsList))
	}
	for _, c := range cases {
		if got.Calls[c.name] != want.Calls[c.name] {
			t.Errorf("%s: wire bytes changed\n got: %+v\nwant: %+v", c.name, got.Calls[c.name], want.Calls[c.name])
		}
	}
	for user, list := range got.ToolsList {
		if list != want.ToolsList[user] {
			t.Errorf("tools/list for %s changed\n got: %s\nwant: %s", user, list, want.ToolsList[user])
		}
	}
}
