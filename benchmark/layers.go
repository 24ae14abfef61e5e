package main

import (
	"encoding/json"
	"runtime"
	"time"

	"bridgescope/internal/core"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
)

// engineAgg sums Engine.Stats() deltas over the traced section. Tasks may
// run on different engines (birdext_agent builds a fresh one per write
// task), so deltas are taken around each task and around the work between
// passes, not once around the section.
type engineAgg struct {
	hits, misses, evictions               int64
	rowsScanned, rowsReturned, dmlVisited int64
	stmtCount, stmtNs                     map[string]int64
	lockWaitNs, lockAcquires              int64
	parBatches, parMorsels                int64
	tasks, parTasks                       int64 // task windows, and those with a parallel batch
	userBytes                             int64 // DML text committed, counted by the workload
	conflicts                             int64
	commits, records, fsyncs, flushes     int64
	walBytes                              int64
	appendNs, fsyncNs, fsyncCount         int64
	checkpoints, checkpointNs             int64
}

func newEngineAgg() *engineAgg {
	return &engineAgg{stmtCount: map[string]int64{}, stmtNs: map[string]int64{}}
}

// addTask adds one task window's delta.
func (a *engineAgg) addTask(b, e stats.Snapshot) {
	a.add(b, e)
	a.tasks++
	if e.Parallel.Batches > b.Parallel.Batches {
		a.parTasks++
	}
}

func (a *engineAgg) add(b, e stats.Snapshot) {
	a.hits += e.PlanCache.Hits - b.PlanCache.Hits
	a.misses += e.PlanCache.Misses - b.PlanCache.Misses
	a.evictions += e.PlanCache.Evictions - b.PlanCache.Evictions
	a.rowsScanned += e.RowsScanned - b.RowsScanned
	a.rowsReturned += e.RowsReturned - b.RowsReturned
	a.dmlVisited += e.DMLRowsVisited - b.DMLRowsVisited
	for kind, h := range e.Statements {
		a.stmtCount[kind] += int64(h.Count) - int64(b.Statements[kind].Count)
		a.stmtNs[kind] += h.SumNs - b.Statements[kind].SumNs
	}
	a.lockWaitNs += e.Locks.WaitNs.SumNs - b.Locks.WaitNs.SumNs
	a.lockAcquires += e.Locks.TableAcquires + e.Locks.GlobalAcquires - b.Locks.TableAcquires - b.Locks.GlobalAcquires
	a.parBatches += e.Parallel.Batches - b.Parallel.Batches
	a.parMorsels += e.Parallel.Morsels - b.Parallel.Morsels
	a.conflicts += e.MVCC.Conflicts - b.MVCC.Conflicts
	a.commits += e.WAL.Commits - b.WAL.Commits
	a.records += e.WAL.Records - b.WAL.Records
	a.fsyncs += e.WAL.Fsyncs - b.WAL.Fsyncs
	a.flushes += e.WAL.GroupFlushes - b.WAL.GroupFlushes
	a.walBytes += e.WAL.WALBytes - b.WAL.WALBytes
	a.appendNs += e.WAL.AppendNs.SumNs - b.WAL.AppendNs.SumNs
	a.fsyncNs += e.WAL.FsyncNs.SumNs - b.WAL.FsyncNs.SumNs
	a.fsyncCount += int64(e.WAL.FsyncNs.Count) - int64(b.WAL.FsyncNs.Count)
	a.checkpoints += e.Checkpoint.Count - b.Checkpoint.Count
	a.checkpointNs += e.Checkpoint.DurationNs.SumNs - b.Checkpoint.DurationNs.SumNs
}

func (a *engineAgg) statements() int64 {
	var n int64
	for _, c := range a.stmtCount {
		n += c
	}
	return n
}

// memSection is the runtime's view of the traced section.
type memSection struct {
	gcCycles uint32
	pauseNs  uint64
	heapSys  uint64
}

func readMem() memSection {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSection{gcCycles: m.NumGC, pauseNs: m.PauseTotalNs, heapSys: m.HeapSys}
}

// baselineFigures is the PG-MCP pass of birdext_agent.
type baselineFigures struct{ tokensPerTask, llmCallsPerTask float64 }

// layerInputs is everything perLayerValues reads.
type layerInputs struct {
	tr           *tracer
	passes       []*passStats // traced passes
	agg          *engineAgg
	memBefore    memSection // around the whole measured section,
	memAfter     memSection // untraced passes included
	sectionCalls float64    // tool calls in that section
	untracedRate float64    // calls_per_s of the untraced passes of the same run
	baseline     baselineFigures
	extra        map[string]float64 // figures only the workload can measure
}

// perLayerValues derives every per-layer metric from the spans, the
// per-task samples, the engine deltas and the replay probes.
func perLayerValues(in layerInputs) (map[string]float64, []layerRow) {
	spans := in.tr.spans
	self := selfTimes(spans)
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}

	// Per-task samples.
	var tasks, calls, prompt, completion, aborted, exhausted, turnLimit float64
	var exposed, errResults, dataBytes, llmBytes float64
	for _, ps := range in.passes {
		for i := range ps.samples {
			s := &ps.samples[i]
			tasks++
			calls += float64(s.toolCalls)
			prompt += float64(s.promptTokens)
			completion += float64(s.completionTokens)
			exposed += float64(s.exposedTools)
			errResults += float64(s.errResults)
			dataBytes += float64(s.dataBytes)
			llmBytes += float64(s.llmBytes)
			aborted += b2f(s.aborted)
			exhausted += b2f(s.exhausted)
			turnLimit += b2f(s.turnLimit)
		}
	}
	v["agent.tool_calls_per_task"] = ratio(calls, tasks)
	v["agent.prompt_tokens_per_task"] = ratio(prompt, tasks)
	v["agent.completion_tokens_per_task"] = ratio(completion, tasks)
	v["agent.abort_share"] = ratio(aborted, tasks)
	v["agent.context_exhausted_share"] = ratio(exhausted, tasks)
	v["agent.turn_limit_share"] = ratio(turnLimit, tasks)
	v["mcp.calls"] = calls
	v["mcp.request_bytes_per_call"] = ratio(float64(in.tr.requestBytes), calls)
	v["mcp.result_text_bytes_per_call"] = ratio(llmBytes, calls)
	v["mcp.result_data_bytes_per_call"] = ratio(dataBytes, calls)
	v["mcp.error_result_share"] = ratio(errResults, calls)
	v["core.exposed_tools_per_task"] = ratio(exposed, tasks)

	// Spans.
	hasExec := make([]bool, len(spans)) // handler spans with a conn.Exec child
	for i := range spans {
		if spans[i].Name == "conn.Exec" && spans[i].Parent >= 0 {
			hasExec[spans[i].Parent] = true
		}
	}
	type tot struct{ n, dur, self float64 }
	var task, decide, list, call, newTk, handler, coreSelf, sqlSelf, ctxSelf, proxy, ml tot
	var nested, rejects float64
	var callDurs, commitDurs []float64
	conn := map[string]*tot{}
	toolDurs := map[string][]float64{}
	add := func(t *tot, i int) {
		t.n++
		t.dur += float64(spans[i].dur())
		t.self += float64(self[i])
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanTask:
			add(&task, i)
		case spanDecide:
			add(&decide, i)
		case spanList:
			add(&list, i)
		case spanCall:
			add(&call, i)
			callDurs = append(callDurs, float64(s.dur())/1e3)
		case spanNew:
			add(&newTk, i)
		case spanHandler:
			if s.Parent >= 0 && spans[s.Parent].Name == spanHandler {
				nested++
			}
			if mlTools[s.Tool] {
				add(&ml, i)
				continue
			}
			add(&handler, i)
			toolDurs[s.Tool] = append(toolDurs[s.Tool], float64(s.dur())/1e3)
			switch {
			case s.Tool == "proxy":
				add(&proxy, i)
			case sqlTools[s.Tool]:
				add(&coreSelf, i)
				add(&sqlSelf, i)
				if s.Err && !hasExec[i] {
					rejects++
				}
			case contextTools[s.Tool]:
				add(&coreSelf, i)
				add(&ctxSelf, i)
			default:
				add(&coreSelf, i)
			}
		default: // conn.<method>
			group := layerOf(s)
			if conn[group] == nil {
				conn[group] = &tot{}
			}
			add(conn[group], i)
			if s.Name == "conn.Commit" {
				commitDurs = append(commitDurs, float64(s.dur())/1e3)
			}
		}
	}
	us := func(ns, n float64) float64 { return ratio(ns/1e3, n) }
	v["agent.task_self_us"] = us(task.self, task.n)
	v["llm.decide_us_per_task"] = us(decide.dur, task.n)
	v["mcp.envelope_us_per_call"] = us(call.self, call.n)
	v["mcp.list_tools_us_per_task"] = us(list.dur, task.n)
	v["mcp.call_p99_us"] = percentile(callDurs, 0.99)
	v["core.new_us_per_task"] = us(newTk.dur, task.n)
	v["core.handler_us_per_call"] = us(handler.dur, handler.n)
	v["core.self_us_per_call"] = us(coreSelf.self, coreSelf.n)
	v["core.sql_tool_self_us_per_call"] = us(sqlSelf.self, sqlSelf.n)
	v["core.context_tool_self_us_per_call"] = us(ctxSelf.self, ctxSelf.n)
	v["core.verify_rejects_per_sql_call"] = ratio(rejects, sqlSelf.n)
	v["proxy.calls"] = proxy.n
	v["proxy.self_us_per_call"] = us(proxy.self, proxy.n)
	v["proxy.producers_per_call"] = ratio(nested-proxy.n, proxy.n) // one nested call per unit is the consumer
	moved := float64(in.tr.movedBytes)
	v["proxy.kb_moved_per_task"] = ratio(moved/1024, tasks)
	v["proxy.bypass_ratio"] = ratio(moved, moved+llmBytes)
	v["mltools.handler_us_per_task"] = us(ml.dur, task.n)
	get := func(name string) tot {
		if t := conn[name]; t != nil {
			return *t
		}
		return tot{}
	}
	classify, priv, exec, catalog, txn := get("conn.ClassifySQL"), get("conn.HasPrivilege"), get("conn.Exec"), get("conn.catalog"), get("conn.txn")
	v["conn.classify_us_per_call"] = us(classify.dur, classify.n)
	v["conn.classify_calls"] = classify.n
	v["conn.has_privilege_us_per_call"] = us(priv.dur, priv.n)
	v["conn.has_privilege_calls_per_task"] = ratio(priv.n, task.n)
	v["conn.exec_us_per_call"] = us(exec.dur, exec.n)
	v["conn.exec_calls"] = exec.n
	v["conn.exec_error_share"] = ratio(float64(in.tr.execErrs), float64(in.tr.execCalls))
	v["conn.rows_returned_per_exec"] = ratio(float64(in.tr.execRows), float64(in.tr.execCalls))
	v["conn.catalog_us_per_call"] = us(catalog.dur, catalog.n)
	v["conn.catalog_calls_per_task"] = ratio(catalog.n, task.n)
	v["conn.txn_us_per_call"] = us(txn.dur, txn.n)
	v["conn.commit_p50_us"] = median(commitDurs)
	for _, tool := range tracedTools {
		v["tool."+tool+".count"] = float64(len(toolDurs[tool]))
		v["tool."+tool+".p50_us"] = median(toolDurs[tool])
	}

	// Engine deltas.
	a := in.agg
	stmts := float64(a.statements())
	v["sqldb.plancache.hit_ratio"] = ratio(float64(a.hits), float64(a.hits+a.misses))
	v["sqldb.plancache.evictions"] = float64(a.evictions)
	v["sqldb.rows_scanned_per_stmt"] = ratio(float64(a.rowsScanned), stmts)
	v["sqldb.rows_scanned_per_row_returned"] = ratio(float64(a.rowsScanned), float64(a.rowsReturned))
	dml := float64(a.stmtCount["update"] + a.stmtCount["delete"])
	v["sqldb.dml_rows_visited_per_stmt"] = ratio(float64(a.dmlVisited), dml)
	for _, kind := range []string{"select", "insert", "update", "delete", "txn"} {
		v["sqldb.stmt_mean_us."+kind] = us(float64(a.stmtNs[kind]), float64(a.stmtCount[kind]))
	}
	v["sqldb.locks.wait_us_per_stmt"] = us(float64(a.lockWaitNs), stmts)
	v["sqldb.locks.acquires_per_stmt"] = ratio(float64(a.lockAcquires), stmts)
	v["sqldb.parallel.batches"] = float64(a.parBatches)
	v["sqldb.parallel.morsels_per_batch"] = ratio(float64(a.parMorsels), float64(a.parBatches))
	v["sqldb.parallel.task_share"] = ratio(float64(a.parTasks), float64(a.tasks))
	v["sqldb.mvcc.conflicts"] = float64(a.conflicts)
	commits := float64(a.commits)
	v["wal.commits"] = commits
	v["wal.fsyncs_per_commit"] = ratio(float64(a.fsyncs), commits)
	v["wal.records_per_commit"] = ratio(float64(a.records), commits)
	v["wal.bytes_per_commit"] = ratio(float64(a.walBytes), commits)
	v["wal.bytes_per_user_byte"] = ratio(float64(a.walBytes), float64(a.userBytes))
	v["wal.append_us_per_commit"] = us(float64(a.appendNs), commits)
	v["wal.fsync_mean_us"] = us(float64(a.fsyncNs), float64(a.fsyncCount))
	v["wal.commits_per_group_flush"] = ratio(commits, float64(a.flushes))
	v["wal.checkpoints"] = float64(a.checkpoints)
	v["wal.checkpoint_ms_mean"] = ratio(float64(a.checkpointNs)/1e6, float64(a.checkpoints))

	// Replay probes on what the Conn decorator captured.
	v["sqldb.parse_us_per_stmt"] = probeParse(in.tr.texts)
	v["core.render_us_per_call"], v["core.data_marshal_us_per_call"] = probeRender(in.tr.results)

	// Runtime and the tracer itself.
	v["runtime.gc_cycles_per_1k_calls"] = ratio(1000*float64(in.memAfter.gcCycles-in.memBefore.gcCycles), in.sectionCalls)
	v["runtime.gc_pause_ms"] = float64(in.memAfter.pauseNs-in.memBefore.pauseNs) / 1e6
	v["runtime.heap_sys_mb"] = float64(in.memAfter.heapSys) / (1 << 20)
	v["trace.spans"] = float64(len(spans))
	var tracedRates []float64
	for _, ps := range in.passes {
		tracedRates = append(tracedRates, ps.figures().callsPerS)
	}
	if in.untracedRate > 0 {
		v["trace.overhead_pct"] = 100 * (1 - median(tracedRates)/in.untracedRate)
	}
	v["pgmcp.tokens_per_task"] = in.baseline.tokensPerTask
	v["pgmcp.llm_calls_per_task"] = in.baseline.llmCallsPerTask
	for k, x := range in.extra {
		v[k] = x
	}
	return v, layerTable(spans, self)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probeParse times sqldb.Parse over the run's distinct statement texts, the
// work ClassifySQL does on every call and Exec repeats on a plan-cache miss.
func probeParse(texts map[string]struct{}) float64 {
	if len(texts) == 0 {
		return 0
	}
	t0 := time.Now()
	for sql := range texts {
		// A text the engine rejected is part of the workload; its parse
		// error is expected and costs what it costs.
		_, _ = sqldb.Parse(sql)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(texts))
}

// probeRender replays, on captured results, the two things mcpResult does
// to every result: render the text and marshal the rows eagerly.
func probeRender(results []*core.Result) (renderUs, marshalUs float64) {
	if len(results) == 0 {
		return 0, 0
	}
	var sink int
	t0 := time.Now()
	for _, r := range results {
		sink += len(r.Text())
	}
	render := time.Since(t0)
	t0 = time.Now()
	for _, r := range results {
		if len(r.Columns) == 0 {
			continue
		}
		raw, err := json.Marshal(map[string]any{"columns": r.Columns, "rows": r.Rows})
		if err == nil {
			sink += len(raw)
		}
	}
	marshal := time.Since(t0)
	_ = sink
	n := float64(len(results))
	return float64(render.Nanoseconds()) / 1e3 / n, float64(marshal.Nanoseconds()) / 1e3 / n
}
