package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bridgescope/internal/bench/birdext"
)

// The integration tests below run sampled versions of every experiment and
// assert the paper's qualitative findings hold: they are the "shape checks"
// EXPERIMENTS.md reports against. Each also pins its counted cells (LLM
// calls, tokens, accuracy, trigger and completion ratios) against its
// section of testdata/paper_golden.json, so a change that moves a number
// the paper reports fails even when the shape still holds.

func testCfg() Config { return Config{Seed: 42, Sample: 25} }

var updatePaperGolden = flag.Bool("update-paper-golden", false,
	"rewrite the running tests' sections of testdata/paper_golden.json")

var paperGoldenPath = filepath.Join("testdata", "paper_golden.json")

// checkPaperGolden compares rows, one experiment's counted results, with the
// golden file's section of that name; under -update-paper-golden it
// rewrites the section instead and leaves the others as they are.
func checkPaperGolden(t *testing.T, section string, rows any) {
	t.Helper()
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]json.RawMessage{}
	data, err := os.ReadFile(paperGoldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("%s: %v", paperGoldenPath, err)
		}
	case !*updatePaperGolden || !os.IsNotExist(err):
		t.Fatal(err)
	}
	if *updatePaperGolden {
		golden[section] = got
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(paperGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := golden[section]
	if !ok {
		t.Fatalf("%s has no %q section; run with -update-paper-golden", paperGoldenPath, section)
	}
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w, g) {
		return
	}
	wantRows, _ := w.([]any)
	gotRows, _ := g.([]any)
	if len(wantRows) == 0 || len(wantRows) != len(gotRows) {
		t.Fatalf("%s section %q changed:\n got %v\nwant %v", paperGoldenPath, section, g, w)
	}
	for i := range wantRows {
		if !reflect.DeepEqual(wantRows[i], gotRows[i]) {
			t.Errorf("%s section %q row %d changed:\n got %v\nwant %v", paperGoldenPath, section, i, gotRows[i], wantRows[i])
		}
	}
}

func find5a(res []Fig5aResult, model string, kind ToolkitKind) Fig5aResult {
	for _, r := range res {
		if r.Model == model && r.Toolkit == kind {
			return r
		}
	}
	return Fig5aResult{}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("want 4 result rows, got %d", len(res))
	}
	checkPaperGolden(t, "fig5a", res)
	for _, model := range []string{"gpt-4o-sim", "claude-4-sim"} {
		bs := find5a(res, model, BridgeScope)
		minus := find5a(res, model, PGMCPMinus)
		if bs.AvgLLMCalls >= minus.AvgLLMCalls {
			t.Fatalf("%s: BridgeScope (%.2f) must use fewer calls than PG-MCP- (%.2f)",
				model, bs.AvgLLMCalls, minus.AvgLLMCalls)
		}
		// The paper reports >30% reduction and near-best-achievable.
		if reduction := 1 - bs.AvgLLMCalls/minus.AvgLLMCalls; reduction < 0.15 {
			t.Fatalf("%s: reduction %.2f too small", model, reduction)
		}
		if bs.AvgLLMCalls > 4.5 {
			t.Fatalf("%s: BridgeScope calls %.2f too far from best-achievable 3", model, bs.AvgLLMCalls)
		}
	}
}

func TestFig5bShape(t *testing.T) {
	res, err := Fig5b(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, "fig5b", res)
	for _, r := range res {
		if r.Accuracy < 0.6 {
			t.Fatalf("%s/%s accuracy %.2f unreasonably low", r.Model, r.Toolkit, r.Accuracy)
		}
	}
	// Comparable accuracy: the gap between toolkits stays small.
	for _, model := range []string{"gpt-4o-sim", "claude-4-sim"} {
		var bs, pg float64
		for _, r := range res {
			if r.Model != model {
				continue
			}
			if r.Toolkit == BridgeScope {
				bs = r.Accuracy
			} else {
				pg = r.Accuracy
			}
		}
		diff := bs - pg
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.25 {
			t.Fatalf("%s: accuracy gap %.2f too large (bs %.2f, pg %.2f)", model, diff, bs, pg)
		}
	}
}

func TestFig5cShape(t *testing.T) {
	res, err := Fig5c(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, "fig5c", res)
	for _, r := range res {
		switch r.Toolkit {
		case BridgeScope:
			if r.TriggerRatio < 0.9 {
				t.Fatalf("%s BridgeScope trigger ratio %.2f, want ~1", r.Model, r.TriggerRatio)
			}
		case PGMCP:
			if r.TriggerRatio > 0.4 {
				t.Fatalf("%s PG-MCP trigger ratio %.2f, want rare", r.Model, r.TriggerRatio)
			}
		}
	}
}

func TestFig6Table1Shape(t *testing.T) {
	res, err := Fig6Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, "fig6_table1", res)
	byKey := map[string]CellResult{}
	for _, r := range res {
		byKey[r.Model+"|"+string(r.Toolkit)+"|"+r.Cell.String()] = r
	}
	for _, model := range []string{"gpt-4o-sim", "claude-4-sim"} {
		// Feasible cells: both toolkits comparable.
		for _, cell := range []string{"(A, read)", "(A, write)"} {
			bs := byKey[model+"|BridgeScope|"+cell]
			pg := byKey[model+"|PG-MCP|"+cell]
			diff := bs.AvgLLMCalls - pg.AvgLLMCalls
			if diff < 0 {
				diff = -diff
			}
			if diff > 1.0 {
				t.Fatalf("%s %s: feasible calls should be comparable (bs %.2f, pg %.2f)",
					model, cell, bs.AvgLLMCalls, pg.AvgLLMCalls)
			}
		}
		// Infeasible cells: BridgeScope strictly cheaper in calls and tokens.
		for _, cell := range []string{"(N, write)", "(I, read)", "(I, write)"} {
			bs := byKey[model+"|BridgeScope|"+cell]
			pg := byKey[model+"|PG-MCP|"+cell]
			if bs.AvgLLMCalls >= pg.AvgLLMCalls {
				t.Fatalf("%s %s: BridgeScope calls %.2f !< PG-MCP %.2f",
					model, cell, bs.AvgLLMCalls, pg.AvgLLMCalls)
			}
			if bs.AvgTokens >= pg.AvgTokens {
				t.Fatalf("%s %s: BridgeScope tokens %.0f !< PG-MCP %.0f",
					model, cell, bs.AvgTokens, pg.AvgTokens)
			}
			// Paper: 23–71% fewer reasoning steps; check at least 20%.
			if red := 1 - bs.AvgLLMCalls/pg.AvgLLMCalls; red < 0.2 {
				t.Fatalf("%s %s: call reduction %.2f below paper's range", model, cell, red)
			}
		}
	}
	// Claude-4's early aborts approach the best-achievable bound.
	claudeNW := byKey["claude-4-sim|BridgeScope|(N, write)"]
	if claudeNW.AvgLLMCalls > 1.6 {
		t.Fatalf("claude (N, write) calls %.2f, want near best-achievable 1", claudeNW.AvgLLMCalls)
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := testCfg()
	cfg.Sample = 6 // 5 tasks across levels
	res, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, "table2", res)
	byKey := map[string]Table2Result{}
	for _, r := range res {
		byKey[r.Model+"|"+string(r.Toolkit)] = r
	}
	for _, model := range []string{"gpt-4o-sim", "claude-4-sim"} {
		bs := byKey[model+"|BridgeScope"]
		pg := byKey[model+"|PG-MCP"]
		small := byKey[model+"|PG-MCP-S"]
		if bs.CompletionRate != 1.0 {
			t.Fatalf("%s BridgeScope completion %.2f, want 1.0", model, bs.CompletionRate)
		}
		if pg.CompletionRate != 0.0 {
			t.Fatalf("%s PG-MCP completion %.2f, want 0.0 (context exhaustion)", model, pg.CompletionRate)
		}
		if small.CompletionRate != 1.0 {
			t.Fatalf("%s PG-MCP-S completion %.2f, want 1.0", model, small.CompletionRate)
		}
		if bs.AvgLLMCalls >= small.AvgLLMCalls {
			t.Fatalf("%s: BridgeScope calls %.2f !< PG-MCP-S %.2f", model, bs.AvgLLMCalls, small.AvgLLMCalls)
		}
		if bs.AvgTokens >= small.AvgTokens {
			t.Fatalf("%s: BridgeScope tokens %.0f !< PG-MCP-S %.0f", model, bs.AvgTokens, small.AvgTokens)
		}
		if bs.AvgLLMCalls > 4.1 {
			t.Fatalf("%s: BridgeScope calls %.2f should be near the 3-call minimum", model, bs.AvgLLMCalls)
		}
	}
}

func TestIdealizedTransferShape(t *testing.T) {
	cfg := testCfg()
	cfg.Sample = 10
	res, err := IdealizedTransfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPaperGolden(t, "ideal", res)
	if res.IdealizedAgentTokens < 1_000_000 {
		t.Fatalf("idealized transfer %d tokens, expected >1M for the full table", res.IdealizedAgentTokens)
	}
	// "More than two orders of magnitude" (paper: 13,449.7 vs >= 1.5M).
	if res.Ratio < 100 {
		t.Fatalf("ratio %.0f, want >= 100x", res.Ratio)
	}
}

func TestAblationsShape(t *testing.T) {
	cfg := testCfg()
	cfg.Sample = 40
	res, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("want 4 ablations, got %d", len(res))
	}
	// Wall-clock ablations vary run to run; only the counted ones are pinned.
	var counted []AblationResult
	for _, r := range res {
		if r.Unit != "seconds" {
			counted = append(counted, r)
		}
	}
	checkPaperGolden(t, "ablations", counted)
	for _, r := range res {
		switch r.Name {
		case "privilege annotations OFF":
			if r.Value <= r.Baseline {
				t.Fatalf("removing annotations should cost calls: %.2f !> %.2f", r.Value, r.Baseline)
			}
		case "hierarchical schema (n=5)":
			if r.Value >= r.Baseline {
				t.Fatalf("hierarchical schema should be smaller: %.0f !< %.0f", r.Value, r.Baseline)
			}
		case "get_value top-k vs full enumeration":
			if r.Value*10 > r.Baseline {
				t.Fatalf("top-k should be far below enumeration: %.0f vs %.0f", r.Value, r.Baseline)
			}
		}
	}
}

func TestRunnerRejectsWrongToolkits(t *testing.T) {
	suite := birdext.GenerateSuite(42)
	model := Models(42)[0]
	if _, err := runBirdTask(suite, birdext.RoleAdmin, PGMCPSmall, model, suite.ReadTasks[0]); err == nil {
		t.Fatal("PG-MCP-S must be rejected for BIRD-Ext")
	}
	if _, err := runNL2MLTask(testCfg(), PGMCPMinus, model, nil); err == nil {
		t.Fatal("PG-MCP- must be rejected for NL2ML")
	}
}
