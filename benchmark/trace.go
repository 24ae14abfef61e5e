package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"bridgescope/internal/agent"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
)

// span is one timed call into a layer's public boundary. Times are
// nanoseconds since the tracer's epoch; Parent is an index into the span
// slice, -1 for a task's root span.
type span struct {
	Name   string `json:"name"`
	Tool   string `json:"tool,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Task   int32  `json:"task"`
	Err    bool   `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// Span names. A handler span's layer depends on its tool, see layerOf.
const (
	spanTask    = "agent.task"
	spanDecide  = "llm.decide"
	spanList    = "mcp.list"
	spanCall    = "mcp.call"
	spanNew     = "core.new"
	spanHandler = "handler"
)

// tracer records spans from wrappers around each layer's public boundary.
// All of it lives in the benchmark; the program under test is not changed.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open lists the handler spans now running; a Conn call has no context
	// argument, so it is attributed to the newest open handler that has no
	// Conn call in flight (sibling producers run handlers in parallel).
	open []int32
	busy map[int32]bool

	task int32
	top  int32 // the main goroutine's innermost open span

	// Side records resolved after each task window, so sizing them is not
	// billed to any span.
	pendingArgs    []any
	pendingResults []any
	requestBytes   int64
	movedBytes     int64 // results of handlers nested under proxy

	// Captures for the replay probes.
	results     []*core.Result
	resultRows  int
	texts       map[string]struct{}
	execRows    int64
	execCalls   int64
	execErrs    int64
	captureFull bool
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, 1<<19),
		busy:  map[int32]bool{},
		texts: map[string]struct{}{},
		top:   -1,
	}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) begin(name, tool string, parent int32) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Tool: tool, Parent: parent, Task: t.task, Start: t.now()})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// push opens a span on the main goroutine under its innermost open span;
// pop closes it. Tasks, toolkit construction, model decisions and top-level
// tool calls nest this way.
func (t *tracer) push(name, tool string) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Tool: tool, Parent: t.top, Task: t.task, Start: t.now()})
	t.top = id
	t.mu.Unlock()
	return id
}

func (t *tracer) pop(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.top = t.spans[id].Parent
	t.mu.Unlock()
}

func (t *tracer) beginTask(taskID int) int32 {
	t.task = int32(taskID)
	return t.push(spanTask, "")
}

// afterTask sizes the arguments and nested results recorded during the task.
func (t *tracer) afterTask() {
	for _, v := range t.pendingArgs {
		t.requestBytes += int64(encodedSize(v))
	}
	for _, v := range t.pendingResults {
		t.movedBytes += int64(encodedSize(v))
	}
	t.pendingArgs = t.pendingArgs[:0]
	t.pendingResults = t.pendingResults[:0]
}

// encodedSize is the number of bytes v occupies on the tool protocol.
func encodedSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case string:
		return len(x)
	case mcp.CallResult:
		if len(x.Data) > 0 {
			return len(x.Data)
		}
		return len(x.Text)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(raw)
}

// --- context plumbing ---

type spanKey struct{}

func parentFrom(ctx context.Context) (int32, bool) {
	id, ok := ctx.Value(spanKey{}).(int32)
	return id, ok
}

// --- agent.ToolClient wrapper: spans mcp.list and mcp.call ---

type tracedClient struct {
	t     *tracer
	inner agent.ToolClient
}

func (t *tracer) wrapClient(inner agent.ToolClient) agent.ToolClient {
	return &tracedClient{t: t, inner: inner}
}

func (c *tracedClient) ListTools(ctx context.Context) ([]mcp.ToolInfo, error) {
	id := c.t.push(spanList, "")
	defer c.t.pop(id)
	return c.inner.ListTools(ctx)
}

func (c *tracedClient) CallTool(ctx context.Context, name string, args map[string]any) (mcp.CallResult, error) {
	t := c.t
	id := t.push(spanCall, name)
	res, err := c.inner.CallTool(context.WithValue(ctx, spanKey{}, id), name, args)
	t.pop(id)
	if err != nil || res.IsErr {
		t.mu.Lock()
		t.spans[id].Err = true
		t.mu.Unlock()
	}
	t.pendingArgs = append(t.pendingArgs, map[string]any{"name": name, "arguments": args})
	return res, err
}

// --- llm.Model wrapper: span llm.decide ---

type tracedModel struct {
	llm.Model
	t *tracer
}

func (t *tracer) wrapModel(m llm.Model) llm.Model { return &tracedModel{Model: m, t: t} }

func (m *tracedModel) Decide(st *llm.State) (*llm.Decision, error) {
	id := m.t.push(spanDecide, "")
	defer m.t.pop(id)
	return m.Model.Decide(st)
}

// --- handler wrappers: span handler, re-registered over every tool ---

// wrapHandlers replaces every registered tool by a copy whose handler is
// timed. The proxy tool calls its siblings through the same registry, so
// nested calls are seen too; their parent travels in ctx.
func (t *tracer) wrapHandlers(reg *mcp.Registry) {
	for _, name := range reg.Names() {
		tool, ok := reg.Get(name)
		if !ok {
			continue
		}
		wrapped := *tool
		inner := tool.Handler
		wrapped.Handler = func(ctx context.Context, args map[string]any) (any, error) {
			parent, ok := parentFrom(ctx)
			if !ok {
				parent = -1
			}
			id := t.begin(spanHandler, wrapped.Name, parent)
			t.mu.Lock()
			t.open = append(t.open, id)
			nested := parent >= 0 && t.spans[parent].Name == spanHandler
			t.mu.Unlock()

			out, err := inner(context.WithValue(ctx, spanKey{}, id), args)

			t.end(id)
			t.mu.Lock()
			for i, o := range t.open {
				if o == id {
					t.open = append(t.open[:i], t.open[i+1:]...)
					break
				}
			}
			t.spans[id].Err = err != nil
			if nested && err == nil {
				t.pendingResults = append(t.pendingResults, out)
			}
			t.mu.Unlock()
			return out, err
		}
		reg.Register(&wrapped)
	}
}

// --- core.Conn decorator: spans conn.<method> ---

// tracedConn embeds the Conn it decorates, so methods it does not time (and
// methods a later change adds to the interface) pass straight through.
type tracedConn struct {
	core.Conn
	t *tracer
}

func (t *tracer) wrapConn(c core.Conn) core.Conn { return &tracedConn{Conn: c, t: t} }

// enter opens a conn span under the handler it is attributed to.
func (c *tracedConn) enter(name string) (id, owner int32) {
	t := c.t
	t.mu.Lock()
	owner = -1
	for i := len(t.open) - 1; i >= 0; i-- {
		if h := t.open[i]; !t.busy[h] && t.spans[h].Tool != "proxy" {
			owner = h
			t.busy[h] = true
			break
		}
	}
	parent := owner
	if parent < 0 {
		parent = t.top
	}
	t.mu.Unlock()
	return t.begin(name, "", parent), owner
}

func (c *tracedConn) leave(id, owner int32, failed bool) {
	t := c.t
	t.end(id)
	t.mu.Lock()
	if owner >= 0 {
		delete(t.busy, owner)
	}
	if failed {
		t.spans[id].Err = true
	}
	t.mu.Unlock()
}

func (c *tracedConn) Exec(sql string) (*core.Result, error) {
	id, owner := c.enter("conn.Exec")
	res, err := c.Conn.Exec(sql)
	c.leave(id, owner, err != nil)
	t := c.t
	t.mu.Lock()
	t.execCalls++
	if err != nil {
		t.execErrs++
	} else {
		t.execRows += int64(len(res.Rows))
		// Keep a bounded sample of results for the render/marshal probes.
		if !t.captureFull {
			t.results = append(t.results, res)
			t.resultRows += len(res.Rows) + 1
			t.captureFull = len(t.results) >= 2048 || t.resultRows >= 200_000
		}
	}
	if len(t.texts) < 50_000 {
		t.texts[sql] = struct{}{}
	}
	t.mu.Unlock()
	return res, err
}

func (c *tracedConn) Begin() error {
	id, owner := c.enter("conn.Begin")
	err := c.Conn.Begin()
	c.leave(id, owner, err != nil)
	return err
}

// BeginIsolation forwards the optional method the begin tool looks for in
// toolkit.go; without it a traced begin with a level would take another path.
func (c *tracedConn) BeginIsolation(level string) error {
	bi, ok := c.Conn.(interface{ BeginIsolation(string) error })
	if !ok {
		_, err := c.Exec("BEGIN ISOLATION LEVEL " + level)
		return err
	}
	id, owner := c.enter("conn.Begin")
	err := bi.BeginIsolation(level)
	c.leave(id, owner, err != nil)
	return err
}

func (c *tracedConn) Commit() error {
	id, owner := c.enter("conn.Commit")
	err := c.Conn.Commit()
	c.leave(id, owner, err != nil)
	return err
}

func (c *tracedConn) Rollback() error {
	id, owner := c.enter("conn.Rollback")
	err := c.Conn.Rollback()
	c.leave(id, owner, err != nil)
	return err
}

func (c *tracedConn) ListObjects() []core.ObjectInfo {
	id, owner := c.enter("conn.ListObjects")
	defer c.leave(id, owner, false)
	return c.Conn.ListObjects()
}

func (c *tracedConn) ObjectDDL(name string) (string, error) {
	id, owner := c.enter("conn.ObjectDDL")
	ddl, err := c.Conn.ObjectDDL(name)
	c.leave(id, owner, err != nil)
	return ddl, err
}

func (c *tracedConn) Columns(name string) ([]string, error) {
	id, owner := c.enter("conn.Columns")
	cols, err := c.Conn.Columns(name)
	c.leave(id, owner, err != nil)
	return cols, err
}

func (c *tracedConn) ColumnValues(table, column string, limit int) ([]string, error) {
	id, owner := c.enter("conn.ColumnValues")
	vals, err := c.Conn.ColumnValues(table, column, limit)
	c.leave(id, owner, err != nil)
	return vals, err
}

func (c *tracedConn) ObjectActions(object string) []string {
	id, owner := c.enter("conn.ObjectActions")
	defer c.leave(id, owner, false)
	return c.Conn.ObjectActions(object)
}

func (c *tracedConn) HasPrivilege(action, object string) bool {
	id, owner := c.enter("conn.HasPrivilege")
	defer c.leave(id, owner, false)
	return c.Conn.HasPrivilege(action, object)
}

func (c *tracedConn) ClassifySQL(sql string) (string, []string, error) {
	id, owner := c.enter("conn.ClassifySQL")
	verb, tables, err := c.Conn.ClassifySQL(sql)
	c.leave(id, owner, err != nil)
	return verb, tables, err
}

// --- self time ---

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap (sibling producers
// run in parallel) and are clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < reach {
				s = reach
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// blockingWeights returns, for every span, the share of its own time that
// blocked its task. A task's root span has weight 1. Children that run one
// after the other inherit their parent's weight; children that overlap
// (sibling producers under the proxy) split the stretch they share equally,
// so a span that ran beside one sibling for its whole length weighs half its
// parent. Self times multiplied by these weights add up to the task spans'
// total, which busy times do not when work runs in parallel.
func blockingWeights(spans []span) []float64 {
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	weight := make([]float64, len(spans))
	// A child's index is above its parent's, so parents are done first.
	for i := range spans {
		p := &spans[i]
		if p.Parent < 0 {
			weight[i] = 1
		}
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		// Cut the parent's interval at every child boundary; each piece goes
		// in equal parts to the children running in it.
		clip := func(k int32) (int64, int64) {
			return max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		}
		var cuts []int64
		for _, k := range kids {
			s, e := clip(k)
			cuts = append(cuts, s, e)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		got := make([]float64, len(kids))
		for c := 1; c < len(cuts); c++ {
			lo, hi := cuts[c-1], cuts[c]
			if hi <= lo {
				continue
			}
			var running []int
			for j, k := range kids {
				if s, e := clip(k); s <= lo && e >= hi {
					running = append(running, j)
				}
			}
			for _, j := range running {
				got[j] += float64(hi-lo) / float64(len(running))
			}
		}
		for j, k := range kids {
			weight[k] = weight[i] * ratio(got[j], float64(spans[k].dur()))
		}
	}
	return weight
}

// mlTools are the tools the ML server registers into the toolkit.
var mlTools = map[string]bool{
	"zscore_normalize": true, "train_linear_regression": true, "train_random_forest": true,
	"predict": true, "evaluate_regression": true, "trend_analyze": true,
}

var (
	sqlTools     = map[string]bool{"select": true, "insert": true, "update": true, "delete": true, "create_table": true, "drop_table": true, "alter_table": true}
	contextTools = map[string]bool{"get_schema": true, "get_object": true, "get_value": true}
	catalogSpans = map[string]bool{"conn.ListObjects": true, "conn.ObjectDDL": true, "conn.Columns": true, "conn.ColumnValues": true, "conn.ObjectActions": true}
	txnSpans     = map[string]bool{"conn.Begin": true, "conn.Commit": true, "conn.Rollback": true}
)

// layerOf maps a span to its row of the layer table.
func layerOf(s *span) string {
	switch {
	case s.Name == spanTask:
		return "agent"
	case s.Name == spanDecide:
		return "llm"
	case s.Name == spanList || s.Name == spanCall:
		return "mcp"
	case s.Name == spanNew:
		return "core.new"
	case s.Name == spanHandler && s.Tool == "proxy":
		return "core.proxy"
	case s.Name == spanHandler && mlTools[s.Tool]:
		return "mltools"
	case s.Name == spanHandler:
		return "core.handler"
	case catalogSpans[s.Name]:
		return "conn.catalog"
	case txnSpans[s.Name]:
		return "conn.txn"
	}
	return s.Name // conn.Exec, conn.ClassifySQL, conn.HasPrivilege
}

var layerOrder = []string{
	"agent", "llm", "mcp", "core.new", "core.handler", "core.proxy", "mltools",
	"conn.ClassifySQL", "conn.HasPrivilege", "conn.catalog", "conn.txn", "conn.Exec",
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer     string
	calls     int
	selfMs    float64 // busy: parallel siblings each count in full
	share     float64 // of the sum of task spans that this layer's self time blocked
	p50SelfUs float64
}

func layerTable(spans []span, self []int64) []layerRow {
	type acc struct {
		selfs           []float64
		total, blocking float64
	}
	by := map[string]*acc{}
	weight := blockingWeights(spans)
	var taskTotal int64
	for i := range spans {
		l := layerOf(&spans[i])
		a := by[l]
		if a == nil {
			a = &acc{}
			by[l] = a
		}
		a.selfs = append(a.selfs, float64(self[i])/1e3)
		a.total += float64(self[i])
		a.blocking += weight[i] * float64(self[i])
		if spans[i].Name == spanTask {
			taskTotal += spans[i].dur()
		}
	}
	var rows []layerRow
	for _, l := range layerOrder {
		a := by[l]
		if a == nil {
			continue
		}
		rows = append(rows, layerRow{
			layer: l, calls: len(a.selfs), selfMs: a.total / 1e6,
			share: ratio(a.blocking, float64(taskTotal)), p50SelfUs: median(a.selfs),
		})
	}
	return rows
}

func printLayerTable(rows []layerRow) {
	fmt.Printf("%-18s %10s %12s %8s %12s\n", "layer", "calls", "self ms", "share", "p50 self us")
	for _, r := range rows {
		fmt.Printf("%-18s %10d %12.2f %7.1f%% %12.2f\n", r.layer, r.calls, r.selfMs, 100*r.share, r.p50SelfUs)
	}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
