package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatchesTables
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEnd is what a user of the toolkit sees; the same names on every
// workload. A bound is the share of the parent's median by which the metric
// may worsen before a change counts as a regression. The timing bounds are
// the issue's; the others are the tightest whose third still holds the spread
// seen across seeds (README.md, "Bounds"), because the inputs, and with them
// bytes, tokens and verdicts, change a little from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"task_p50_ms", "ms", "lower", 0.1},
	{"task_p90_ms", "ms", "lower", 0.1},
	{"calls_per_s", "1/s", "higher", 0.1},
	{"cpu_us_per_call", "us", "lower", 0.1},
	{"alloc_kb_per_call", "KiB", "lower", 0.05},
	{"allocs_per_call", "count", "lower", 0.025},
	{"tokens_per_task", "tokens", "lower", 0.01},
	{"llm_calls_per_task", "count", "lower", 0.01},
	{"llm_kb_per_task", "KiB", "lower", 0.015},
	{"task_success_rate", "ratio", "higher", 0.02},
}

// exactMetrics come from counting, not timing: two runs of the same code on
// the same seed must report the same value to the last digit. -selfcheck
// holds them to that.
var exactMetrics = map[string]bool{
	"tokens_per_task": true, "llm_calls_per_task": true, "llm_kb_per_task": true, "task_success_rate": true,
}

// opFailShare is the twelfth end-to-end figure: tasks with a failed output
// check / tasks checked. It is 0 on a healthy run, so it cannot take a
// relative bound; its bound is absolute (0) and the exit code enforces it.
// The driver's result line carries it as failed/attempted and, in a traced
// run, among the per-layer metrics.
var opFailShare = metricDef{Name: "op_fail_share", Unit: "ratio", Better: "lower"}

// tracedTools are the toolkit tools that get a count and a p50 of their own
// in the layer metrics.
var tracedTools = []string{
	"get_schema", "get_object", "get_value", "select", "insert", "update",
	"delete", "begin", "commit", "rollback", "proxy",
}

// perLayer is built once: the fixed layer metrics followed by two per tool.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo, hi := "lower", "higher"
	defs := []metricDef{
		// agent, llm
		{Name: "agent.task_self_us", Unit: "us", Better: lo},
		{Name: "agent.tool_calls_per_task", Unit: "count", Better: lo},
		{Name: "agent.prompt_tokens_per_task", Unit: "tokens", Better: lo},
		{Name: "agent.completion_tokens_per_task", Unit: "tokens", Better: lo},
		{Name: "agent.abort_share", Unit: "ratio", Better: lo},
		{Name: "agent.context_exhausted_share", Unit: "ratio", Better: lo},
		{Name: "agent.turn_limit_share", Unit: "ratio", Better: lo},
		{Name: "llm.decide_us_per_task", Unit: "us", Better: lo},
		// mcp
		{Name: "mcp.calls", Unit: "count", Better: lo},
		{Name: "mcp.envelope_us_per_call", Unit: "us", Better: lo},
		{Name: "mcp.request_bytes_per_call", Unit: "B", Better: lo},
		{Name: "mcp.result_text_bytes_per_call", Unit: "B", Better: lo},
		{Name: "mcp.result_data_bytes_per_call", Unit: "B", Better: lo},
		{Name: "mcp.error_result_share", Unit: "ratio", Better: lo},
		{Name: "mcp.list_tools_us_per_task", Unit: "us", Better: lo},
		{Name: "mcp.call_p99_us", Unit: "us", Better: lo},
		// core toolkit
		{Name: "core.new_us_per_task", Unit: "us", Better: lo},
		{Name: "core.exposed_tools_per_task", Unit: "count", Better: lo},
		{Name: "core.handler_us_per_call", Unit: "us", Better: lo},
		{Name: "core.self_us_per_call", Unit: "us", Better: lo},
		{Name: "core.sql_tool_self_us_per_call", Unit: "us", Better: lo},
		{Name: "core.context_tool_self_us_per_call", Unit: "us", Better: lo},
		{Name: "core.verify_rejects_per_sql_call", Unit: "ratio", Better: lo},
		{Name: "core.render_us_per_call", Unit: "us", Better: lo},
		{Name: "core.data_marshal_us_per_call", Unit: "us", Better: lo},
		// core proxy
		{Name: "proxy.calls", Unit: "count", Better: lo},
		{Name: "proxy.self_us_per_call", Unit: "us", Better: lo},
		{Name: "proxy.producers_per_call", Unit: "count", Better: lo},
		{Name: "proxy.kb_moved_per_task", Unit: "KiB", Better: lo},
		{Name: "proxy.bypass_ratio", Unit: "ratio", Better: hi},
		// core Conn
		{Name: "conn.classify_us_per_call", Unit: "us", Better: lo},
		{Name: "conn.classify_calls", Unit: "count", Better: lo},
		{Name: "conn.has_privilege_us_per_call", Unit: "us", Better: lo},
		{Name: "conn.has_privilege_calls_per_task", Unit: "count", Better: lo},
		{Name: "conn.exec_us_per_call", Unit: "us", Better: lo},
		{Name: "conn.exec_calls", Unit: "count", Better: lo},
		{Name: "conn.exec_error_share", Unit: "ratio", Better: lo},
		{Name: "conn.rows_returned_per_exec", Unit: "count", Better: lo},
		{Name: "conn.catalog_us_per_call", Unit: "us", Better: lo},
		{Name: "conn.catalog_calls_per_task", Unit: "count", Better: lo},
		{Name: "conn.txn_us_per_call", Unit: "us", Better: lo},
		{Name: "conn.commit_p50_us", Unit: "us", Better: lo},
		// sqldb (Engine.Stats deltas)
		{Name: "sqldb.plancache.hit_ratio", Unit: "ratio", Better: hi},
		{Name: "sqldb.plancache.evictions", Unit: "count", Better: lo},
		{Name: "sqldb.rows_scanned_per_stmt", Unit: "count", Better: lo},
		{Name: "sqldb.rows_scanned_per_row_returned", Unit: "count", Better: lo},
		{Name: "sqldb.dml_rows_visited_per_stmt", Unit: "count", Better: lo},
		{Name: "sqldb.stmt_mean_us.select", Unit: "us", Better: lo},
		{Name: "sqldb.stmt_mean_us.insert", Unit: "us", Better: lo},
		{Name: "sqldb.stmt_mean_us.update", Unit: "us", Better: lo},
		{Name: "sqldb.stmt_mean_us.delete", Unit: "us", Better: lo},
		{Name: "sqldb.stmt_mean_us.txn", Unit: "us", Better: lo},
		{Name: "sqldb.locks.wait_us_per_stmt", Unit: "us", Better: lo},
		{Name: "sqldb.locks.acquires_per_stmt", Unit: "count", Better: lo},
		{Name: "sqldb.parallel.batches", Unit: "count", Better: hi},
		{Name: "sqldb.parallel.morsels_per_batch", Unit: "count", Better: lo},
		{Name: "sqldb.parallel.task_share", Unit: "ratio", Better: hi},
		{Name: "sqldb.mvcc.conflicts", Unit: "count", Better: lo},
		{Name: "sqldb.parse_us_per_stmt", Unit: "us", Better: lo},
		// sqldb WAL
		{Name: "wal.commits", Unit: "count", Better: lo},
		{Name: "wal.fsyncs_per_commit", Unit: "count", Better: lo},
		{Name: "wal.records_per_commit", Unit: "count", Better: lo},
		{Name: "wal.bytes_per_commit", Unit: "B", Better: lo},
		{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: lo},
		{Name: "wal.append_us_per_commit", Unit: "us", Better: lo},
		{Name: "wal.fsync_mean_us", Unit: "us", Better: lo},
		{Name: "wal.commits_per_group_flush", Unit: "count", Better: hi},
		{Name: "wal.checkpoints", Unit: "count", Better: lo},
		{Name: "wal.checkpoint_ms_mean", Unit: "ms", Better: lo},
		{Name: "wal.dir_bytes_per_user_byte", Unit: "ratio", Better: lo},
		{Name: "wal.reopen_ms", Unit: "ms", Better: lo},
		// mltools, pgmcp (context only)
		{Name: "mltools.handler_us_per_task", Unit: "us", Better: lo},
		{Name: "pgmcp.tokens_per_task", Unit: "tokens", Better: lo},
		{Name: "pgmcp.llm_calls_per_task", Unit: "count", Better: lo},
		// runtime, trace
		{Name: "runtime.gc_cycles_per_1k_calls", Unit: "count", Better: lo},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lo},
		{Name: "runtime.heap_sys_mb", Unit: "MiB", Better: lo},
		{Name: "trace.spans", Unit: "count", Better: lo},
		{Name: "trace.overhead_pct", Unit: "%", Better: lo},
		opFailShare,
	}
	for _, tool := range tracedTools {
		defs = append(defs,
			metricDef{Name: "tool." + tool + ".count", Unit: "count", Better: lo},
			metricDef{Name: "tool." + tool + ".p50_us", Unit: "us", Better: lo})
	}
	return defs
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest element with at least q of the sample at or below it. It sorts a
// copy; an empty sample gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile; applied to one value per pass it
// is the pass-median every timing metric reports.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
