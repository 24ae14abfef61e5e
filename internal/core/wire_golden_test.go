package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bridgescope/internal/mltools"
)

var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json from this build's output")

// wireResult is what a top-level client receives for one call.
type wireResult struct {
	Text  string `json:"text"`
	Data  string `json:"data"`
	IsErr bool   `json:"is_err,omitempty"`
}

// TestWireGolden pins the bytes a top-level client (and so the model)
// receives. testdata/wire_golden.json was captured at the commit before the
// proxy stopped encoding hand-offs; whatever changes inside the toolkit, these
// bytes may not.
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
	got := map[string]wireResult{}
	for _, c := range cases {
		res := call(t, tk, c.tool, c.args)
		got[c.name] = wireResult{Text: res.Text, Data: string(res.Data), IsErr: res.IsErr}
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
	var want map[string]wireResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cases, test has %d", len(want), len(cases))
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: wire bytes changed\n got: %+v\nwant: %+v", c.name, got[c.name], want[c.name])
		}
	}
}
