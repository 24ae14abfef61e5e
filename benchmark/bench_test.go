package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"bridgescope/internal/core"
	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	// 15 tasks per pass: p90 is the 14th of 15.
	var pass []float64
	for i := 1; i <= 15; i++ {
		pass = append(pass, float64(i))
	}
	if got := percentile(pass, 0.9); got != 14 {
		t.Errorf("p90 of 15 = %v, want 14", got)
	}
}

func TestPassMedian(t *testing.T) {
	mk := func(ms ...float64) *passStats {
		ps := &passStats{}
		for _, m := range ms {
			ps.samples = append(ps.samples, taskSample{wallNs: int64(m * 1e6), toolCalls: 2, tokens: 100, llmCalls: 2, success: true})
		}
		return ps
	}
	// Per-pass medians 2, 20, 3: the outlier pass does not move the report.
	v := endToEndValues(1.5, []*passStats{mk(1, 2, 3), mk(10, 20, 30), mk(2, 3, 4)})
	if v["task_p50_ms"] != 3 || v["task_p90_ms"] != 4 || v["setup_s"] != 1.5 {
		t.Errorf("pass-median: %+v", v)
	}
	if v["tokens_per_task"] != 100 || v["llm_calls_per_task"] != 2 || v["task_success_rate"] != 1 {
		t.Errorf("per-task means: %+v", v)
	}
	// calls_per_s is mean-based: 6 calls in 9 ms in the median pass.
	if want := 6 / 0.009; math.Abs(v["calls_per_s"]-want) > 1e-6 {
		t.Errorf("calls_per_s = %v, want %v", v["calls_per_s"], want)
	}
}

func TestPassCountIsFixedPerWorkload(t *testing.T) {
	for _, c := range []struct {
		o    options
		want int
	}{
		{options{workload: "birdext_agent", seconds: 30}, 16},
		{options{workload: "nl2ml_proxy", seconds: 30}, 7},
		{options{workload: "select_scan", seconds: 30}, 10},
		{options{workload: "durable_txn", seconds: 30}, 15},
		{options{workload: "durable_txn", seconds: 60}, 30},
		{options{workload: "nl2ml_proxy", seconds: 1}, 3},
		{options{workload: "nl2ml_proxy", seconds: 30, trace: 1}, 3},
		{options{workload: "nl2ml_proxy", seconds: 30, trace: 1, passes: 5}, 5},
	} {
		if got := c.o.passCount(); got != c.want {
			t.Errorf("%+v: %d passes, want %d", c.o, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: spanTask, Start: 0, End: 100, Parent: -1},                  // 0
		{Name: spanCall, Tool: "proxy", Start: 10, End: 90, Parent: 0},    // 1
		{Name: spanHandler, Tool: "proxy", Start: 12, End: 88, Parent: 1}, // 2
		// Two sibling producers run in parallel and overlap on [30, 50].
		{Name: spanHandler, Tool: "select", Start: 20, End: 50, Parent: 2}, // 3
		{Name: spanHandler, Tool: "select", Start: 30, End: 70, Parent: 2}, // 4
		{Name: "conn.Exec", Start: 22, End: 40, Parent: 3},                 // 5
		{Name: "conn.Exec", Start: 41, End: 65, Parent: 4},                 // 6
		// A child that outlives its parent is clipped to it.
		{Name: spanDecide, Start: 95, End: 120, Parent: 0}, // 7
	}
	self := selfTimes(spans)
	want := []int64{100 - 80 - 5, 80 - 76, 76 - 50, 30 - 18, 40 - 24, 18, 24, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	rows := layerTable(spans, self)
	got := map[string]layerRow{}
	for _, r := range rows {
		got[r.layer] = r
	}
	if got["core.proxy"].calls != 1 || got["core.handler"].calls != 2 || got["conn.Exec"].calls != 2 {
		t.Errorf("layer rows: %+v", rows)
	}
	// Busy time counts the parallel producers in full; the share splits the
	// stretch [30, 50] they overlap on, so the shares add up to the task span.
	if got["conn.Exec"].selfMs != 42e-6 {
		t.Errorf("conn.Exec busy = %v ms, want 42 ns", got["conn.Exec"].selfMs)
	}
	if math.Abs(got["conn.Exec"].share-0.30) > 1e-9 {
		t.Errorf("conn.Exec share = %v, want 0.30 of the task span (18*2/3 + 24*3/4)", got["conn.Exec"].share)
	}
	total := 0.0
	for _, r := range rows {
		total += r.share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("the layers' shares add up to %v, want 1", total)
	}
}

// tiny shrinks a workload so a whole run takes well under a second.
func tiny(w workload) {
	switch w := w.(type) {
	case *durableTxn:
		w.accounts, w.ledger, w.tasks = 200, 400, 30
	case *selectScan:
		w.orders, w.customers = 3000, 300
	case *nl2mlProxy:
		w.rows = 200
	}
}

func runTiny(t *testing.T, name string, trace int, corrupt func(string, *mcp.CallResult)) *report {
	t.Helper()
	rep, err := runWorkload(options{workload: name, seed: 7, passes: 1, trace: trace, shrink: tiny, corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSameSeedSameCounts(t *testing.T) {
	a, b := runTiny(t, "durable_txn", 0, nil), runTiny(t, "durable_txn", 0, nil)
	if !a.Correct || !b.Correct {
		t.Fatalf("output checks failed: %v %v", a.Problems, b.Problems)
	}
	for _, name := range []string{"tokens_per_task", "llm_calls_per_task", "llm_kb_per_task", "task_success_rate"} {
		if a.EndToEnd[name] != b.EndToEnd[name] || a.EndToEnd[name] == 0 {
			t.Errorf("%s: %v then %v", name, a.EndToEnd[name], b.EndToEnd[name])
		}
	}
	ta, tb := runTiny(t, "durable_txn", 1, nil), runTiny(t, "durable_txn", 1, nil)
	for _, name := range []string{"mcp.calls", "wal.commits", "wal.records_per_commit", "conn.exec_calls", "trace.spans"} {
		if ta.PerLayer[name] != tb.PerLayer[name] || ta.PerLayer[name] == 0 {
			t.Errorf("%s: %v then %v", name, ta.PerLayer[name], tb.PerLayer[name])
		}
	}
	// 27 of the 30 tasks commit; the wrong-verb ones roll back.
	if ta.PerLayer["wal.commits"] != 27 || ta.PerLayer["tool.rollback.count"] != 3 {
		t.Errorf("commits %v, rollbacks %v", ta.PerLayer["wal.commits"], ta.PerLayer["tool.rollback.count"])
	}
	if len(ta.PerLayer) != len(perLayer) {
		t.Errorf("traced run reports %d per-layer metrics, the table has %d", len(ta.PerLayer), len(perLayer))
	}
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range []string{"nl2ml_proxy", "select_scan"} {
		rep := runTiny(t, name, 1, nil)
		if !rep.Correct || rep.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, rep.Attempted, rep.Failed, rep.Problems)
		}
		if name == "nl2ml_proxy" && (rep.PerLayer["proxy.calls"] == 0 || rep.PerLayer["proxy.bypass_ratio"] < 0.9) {
			t.Errorf("nl2ml_proxy: proxy.calls %v, bypass %v", rep.PerLayer["proxy.calls"], rep.PerLayer["proxy.bypass_ratio"])
		}
	}
}

func TestCorruptedResultFailsTheRun(t *testing.T) {
	n := 0
	rep := runTiny(t, "select_scan", 0, func(tool string, res *mcp.CallResult) {
		n++
		if n == 300 { // one result of the measured pass; the warm-up pass makes 258 calls
			res.Text = strings.Replace(res.Text, "(", "[", 1)
		}
	})
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("a corrupted tool result went unnoticed: failed %d of %d", rep.Failed, rep.Attempted)
	}
	if n < 300 {
		t.Fatalf("only %d results passed the seam", n)
	}
}

func TestTracedConnKeepsBeginIsolation(t *testing.T) {
	e := sqldb.NewEngine("t")
	e.NewSession("root").MustExec("CREATE TABLE t (id INT PRIMARY KEY)")
	e.Grants().GrantAll("u", "*")
	tr := newTracer()
	conn := tr.wrapConn(core.NewSQLDBConn(e, "u"))
	if _, ok := conn.(interface{ BeginIsolation(string) error }); !ok {
		t.Fatal("the Conn decorator hides BeginIsolation from the begin tool's assertion in toolkit.go")
	}
	tk := core.New(conn, core.Policy{})
	tr.wrapHandlers(tk.Registry())
	res, err := tk.Client().CallTool(context.Background(), "begin", map[string]any{"isolation": "READ COMMITTED"})
	if err != nil || res.IsErr {
		t.Fatalf("begin with a level through the traced toolkit: %v %s", err, res.Text)
	}
	if !conn.InTransaction() {
		t.Error("no transaction is open")
	}
	var handler, begin int
	for i, s := range tr.spans {
		switch {
		case s.Name == spanHandler && s.Tool == "begin":
			handler = i
		case s.Name == "conn.Begin":
			begin = i
		}
	}
	if begin == 0 || int(tr.spans[begin].Parent) != handler {
		t.Errorf("conn.Begin span %d is not a child of the begin handler span %d: %+v", begin, handler, tr.spans)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(endToEnd), len(perLayer))
	}
}
