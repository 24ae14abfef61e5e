package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file defines the plan-node layer of the engine's parse→plan→execute
// pipeline. The planner (planner.go) lowers a parsed statement into a tree
// of PlanNodes; the executor runs the tree instead of walking the raw AST.
// The same tree renders as EXPLAIN output, so what the user sees is exactly
// what executes.

// PlanNode is one operator in a query plan.
type PlanNode interface {
	// Label returns the node's one-line EXPLAIN description.
	Label() string
	// Children returns the node's inputs, outermost first.
	Children() []PlanNode
}

// SourceNode is a plan node that produces an intermediate relation. Scan,
// filter, and join nodes are sources; the projection/aggregation pipeline
// above them is driven by the SelectPlan itself.
type SourceNode interface {
	PlanNode
	run(s *Session, outer *Env) (*rowSet, error)
	// staticCols returns the output column layout when it is known at plan
	// time (base-table scans and combinations thereof), or nil for sources
	// resolved at run time (views).
	staticCols() []envCol
}

// SeqScanNode reads every live row of a table (or materializes a view when
// the name resolves to one at run time).
type SeqScanNode struct {
	Table string
	Alias string
	// Workers is display only: EXPLAIN sets it (labelScanWorkers) to the
	// workers the scan may use at the table's live row count, and > 1
	// renders as a Parallel Seq Scan. Execution never reads it — the scan
	// decides its fan-out from the rows it finds when it runs.
	Workers int
	cols    []envCol // nil when the name is not a base table at plan time
}

// Label implements PlanNode.
func (n *SeqScanNode) Label() string {
	name := n.Table
	if n.Alias != "" && !strings.EqualFold(n.Alias, n.Table) {
		name = n.Table + " as " + n.Alias
	}
	if n.Workers > 1 {
		return fmt.Sprintf("Parallel Seq Scan on %s (workers: %d)", name, n.Workers)
	}
	return "Seq Scan on " + name
}

// Children implements PlanNode.
func (n *SeqScanNode) Children() []PlanNode { return nil }

func (n *SeqScanNode) staticCols() []envCol { return n.cols }

func (n *SeqScanNode) run(s *Session, outer *Env) (*rowSet, error) {
	return s.scanTable(n.Table, n.Alias, nil, outer)
}

// ViewScanNode materializes a stored view. Its output columns are only known
// once the view's query has run.
type ViewScanNode struct {
	View  string
	Alias string
}

// Label implements PlanNode.
func (n *ViewScanNode) Label() string {
	if n.Alias != "" && !strings.EqualFold(n.Alias, n.View) {
		return fmt.Sprintf("View Scan on %s as %s", n.View, n.Alias)
	}
	return "View Scan on " + n.View
}

// Children implements PlanNode.
func (n *ViewScanNode) Children() []PlanNode { return nil }

func (n *ViewScanNode) staticCols() []envCol { return nil }

func (n *ViewScanNode) run(s *Session, outer *Env) (*rowSet, error) {
	v, ok := s.engine.ViewByName(n.View)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: n.View}
	}
	return s.scanView(v, n.Alias)
}

// IndexScanNode reads only the rows whose indexed column equals a literal,
// through a hash index or the primary-key map. The consumed conjunct is
// re-checked by the enclosing FilterNode (the index covers one conjunct of
// the predicate), so the access path is purely an optimization.
type IndexScanNode struct {
	Table  string
	Alias  string
	Column string // the indexed column
	Via    string // "primary key" or "index <name>"
	Val    Value  // the equality literal

	col  int // column position in the table
	cols []envCol
}

// Label implements PlanNode.
func (n *IndexScanNode) Label() string {
	return fmt.Sprintf("Index Scan on %s using %s (%s = %s)",
		n.Table, n.Via, n.Column, n.Val.SQLLiteral())
}

// Children implements PlanNode.
func (n *IndexScanNode) Children() []PlanNode { return nil }

func (n *IndexScanNode) staticCols() []envCol { return n.cols }

func (n *IndexScanNode) run(s *Session, outer *Env) (*rowSet, error) {
	t, ok := s.engine.Table(n.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: n.Table}
	}
	ids, usable := t.lookupEq(n.col, n.Val)
	if !usable {
		// The access path disappeared between plan and execution (e.g. a
		// replan against a changed catalog); fall back to a full scan.
		return s.scanTable(n.Table, n.Alias, nil, outer)
	}
	rs := &rowSet{cols: n.cols, rows: make([][]Value, 0, len(ids))}
	// Preserve insertion order for determinism.
	sorted := append([]int64{}, ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	want := n.Val.Key()
	for _, id := range sorted {
		e, ok := t.byID[id]
		if !ok {
			continue
		}
		// Buckets cover whole version chains; emit only rows whose version
		// visible to this statement's snapshot actually holds the value.
		if v := e.visible(s.curView); v != nil && v.vals[n.col].Key() == want {
			rs.rows = append(rs.rows, v.vals)
		}
	}
	s.engine.scanRowsVisited.Add(int64(len(rs.rows)))
	return rs, nil
}

// IndexRangeScanNode reads the rows whose indexed column falls within a
// range, in column order, through the ordered face of an index or the
// single-column primary key. Like the equality scan, consumed conjuncts are
// re-checked by the enclosing FilterNode, so the bounds are purely a
// row-count reduction — except that emission ORDER (and the Top-K cutoff,
// when MaxRows is set) is a promise the executor relies on when the plan
// skips its sort stage.
type IndexRangeScanNode struct {
	Table  string
	Alias  string
	Column string // the ordered column
	Via    string // "primary key" or "index <name>"
	Lo, Hi *Value // nil = unbounded on that side
	LoIncl bool
	HiIncl bool
	Desc   bool   // emit in descending column order
	Order  string // non-empty when the scan order serves ORDER BY (label text)
	// CoversFilter is true when every conjunct pushed onto this scan is
	// implied by the bounds, i.e. the enclosing filter is a pure re-check
	// that passes every emitted row. Only then may LIMIT be fused.
	CoversFilter bool
	// MaxRows > 0 stops the scan after that many rows (Top-K: LIMIT+OFFSET
	// fused into the ordered scan). 0 means unlimited.
	MaxRows int

	col  int // column position in the table
	cols []envCol
}

// Label implements PlanNode.
func (n *IndexRangeScanNode) Label() string {
	target := n.Table
	if n.Alias != "" && !strings.EqualFold(n.Alias, n.Table) {
		target = n.Table + " as " + n.Alias
	}
	s := fmt.Sprintf("Index Range Scan on %s using %s", target, n.Via)
	if cond := n.condString(); cond != "" {
		s += " (" + cond + ")"
	}
	if n.Order != "" {
		s += " order: " + n.Order
	}
	return s
}

// condString renders the bound conjunction ("grp >= 3 AND grp <= 17").
func (n *IndexRangeScanNode) condString() string {
	var parts []string
	if n.Lo != nil {
		op := ">"
		if n.LoIncl {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", n.Column, op, n.Lo.SQLLiteral()))
	}
	if n.Hi != nil {
		op := "<"
		if n.HiIncl {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", n.Column, op, n.Hi.SQLLiteral()))
	}
	return strings.Join(parts, " AND ")
}

// Children implements PlanNode.
func (n *IndexRangeScanNode) Children() []PlanNode { return nil }

func (n *IndexRangeScanNode) staticCols() []envCol { return n.cols }

// withNulls reports whether NULL rows belong in the emission: only for
// unbounded ordered scans serving a sort (bounded scans exclude them, and
// the range conjunct in the enclosing filter drops them anyway).
func (n *IndexRangeScanNode) withNulls() bool {
	return n.Lo == nil && n.Hi == nil && n.Order != ""
}

// inBounds replays the bound checks against one row value, mirroring the
// ordered structure's emission: NULLs pass only when the scan emits them.
func (n *IndexRangeScanNode) inBounds(v Value) bool {
	if v.IsNull() {
		return n.withNulls()
	}
	if n.Lo != nil {
		c := orderCompare(v, *n.Lo)
		if c < 0 || (c == 0 && !n.LoIncl) {
			return false
		}
	}
	if n.Hi != nil {
		c := orderCompare(v, *n.Hi)
		if c > 0 || (c == 0 && !n.HiIncl) {
			return false
		}
	}
	return true
}

func (n *IndexRangeScanNode) run(s *Session, outer *Env) (*rowSet, error) {
	t, ok := s.engine.Table(n.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: n.Table}
	}
	hits, usable := t.lookupRange(s.curView, n.col, n.Lo, n.Hi, n.LoIncl, n.HiIncl, n.Desc, n.withNulls(), n.MaxRows)
	if !usable {
		// Stale plan: the ordered structure disappeared since planning. Fall
		// back to a full scan, applying the bounds (the plan may have elided
		// its re-check filter) and re-sorting when the plan promised an
		// order. Only the MaxRows cutoff is skipped, which over- rather than
		// under-produces; LIMIT/OFFSET still apply downstream.
		rs, err := s.scanTable(n.Table, n.Alias, nil, outer)
		if err != nil {
			return nil, err
		}
		kept := rs.rows[:0]
		for _, row := range rs.rows {
			if n.inBounds(row[n.col]) {
				kept = append(kept, row)
			}
		}
		rs.rows = kept
		if n.Order == "" {
			return rs, nil
		}
		sort.SliceStable(rs.rows, func(i, j int) bool {
			c, null := compareForOrder(rs.rows[i][n.col], rs.rows[j][n.col])
			if null || c == 0 {
				return false
			}
			if n.Desc {
				return c > 0
			}
			return c < 0
		})
		return rs, nil
	}
	rs := &rowSet{cols: n.cols, rows: make([][]Value, 0, len(hits))}
	for _, h := range hits {
		rs.rows = append(rs.rows, h.v.vals)
	}
	s.engine.scanRowsVisited.Add(int64(len(rs.rows)))
	return rs, nil
}

// FilterNode discards input rows that do not satisfy Cond.
type FilterNode struct {
	Cond  Expr
	Input SourceNode
}

// Label implements PlanNode.
func (n *FilterNode) Label() string { return "Filter: " + n.Cond.String() }

// Children implements PlanNode.
func (n *FilterNode) Children() []PlanNode { return []PlanNode{n.Input} }

func (n *FilterNode) staticCols() []envCol { return n.Input.staticCols() }

func (n *FilterNode) run(s *Session, outer *Env) (*rowSet, error) {
	// A filter over a table scan fuses into it: visibility check and
	// predicate run in the same morsel pass, so filtered rows never
	// materialize.
	if scan, ok := n.Input.(*SeqScanNode); ok {
		if a := s.analyze; a != nil {
			// The fused scan never runs as a node of its own; give EXPLAIN
			// ANALYZE its row count from the engine-wide counter delta (exact
			// unless another session scans concurrently, which is acceptable
			// for a diagnostic annotation).
			start, before := time.Now(), s.engine.scanRowsVisited.Load()
			defer func() {
				a.note(scan, int(s.engine.scanRowsVisited.Load()-before), time.Since(start))
			}()
		}
		return s.scanTable(scan.Table, scan.Alias, n.Cond, outer)
	}
	src, err := s.runSource(n.Input, outer)
	if err != nil {
		return nil, err
	}
	return s.filterRows(n.Cond, src, outer)
}

// Join strategies reported in EXPLAIN output.
const (
	JoinStrategyHash   = "Hash Join"
	JoinStrategyNested = "Nested Loop"
)

// JoinNode combines two sources. Strategy is chosen at plan time when both
// input column sets are statically known; otherwise the executor falls back
// to the run-time choice (hash for inner equi-joins, nested loop otherwise).
type JoinNode struct {
	Kind     JoinKind
	On       Expr // nil for cross joins
	Strategy string
	Left     SourceNode
	Right    SourceNode

	cols []envCol
}

// Label implements PlanNode.
func (n *JoinNode) Label() string {
	strat := n.Strategy
	if strat == "" {
		// Inputs with run-time column sets (views): the executor picks the
		// strategy when it sees the columns, so the plan cannot promise one.
		strat = "Join"
	}
	kind := "inner"
	switch n.Kind {
	case JoinLeft:
		kind = "left"
	case JoinCross, JoinNone:
		kind = "cross"
	}
	if n.On == nil {
		return fmt.Sprintf("%s (%s)", strat, kind)
	}
	return fmt.Sprintf("%s (%s) on %s", strat, kind, n.On.String())
}

// Children implements PlanNode.
func (n *JoinNode) Children() []PlanNode { return []PlanNode{n.Left, n.Right} }

func (n *JoinNode) staticCols() []envCol { return n.cols }

func (n *JoinNode) run(s *Session, outer *Env) (*rowSet, error) {
	left, err := s.runSource(n.Left, outer)
	if err != nil {
		return nil, err
	}
	right, err := s.runSource(n.Right, outer)
	if err != nil {
		return nil, err
	}
	return s.joinSets(left, right, n.Kind, n.On, outer)
}

// resultNode is the leaf for FROM-less SELECTs.
type resultNode struct{}

func (resultNode) Label() string        { return "Result" }
func (resultNode) Children() []PlanNode { return nil }

// displayNode renders a pipeline stage (project, sort, ...) that the
// SelectPlan executes itself.
type displayNode struct {
	label string
	child PlanNode
}

func (d *displayNode) Label() string { return d.label }
func (d *displayNode) Children() []PlanNode {
	if d.child == nil {
		return nil
	}
	return []PlanNode{d.child}
}

// SelectPlan is the executable plan for one SELECT: a source tree producing
// the working relation, a residual predicate that could not be pushed into
// the sources, and the statement that drives the projection/aggregation
// pipeline above them.
type SelectPlan struct {
	Stmt     *SelectStmt
	Source   SourceNode // nil for FROM-less SELECT
	Residual Expr       // nil when fully pushed down (or no WHERE)
	// SortPushed is true when the source emits rows already in ORDER BY
	// order (an ordered index scan); the executor skips its sort stage.
	SortPushed bool
	// TopK is true when LIMIT/OFFSET is additionally fused into the ordered
	// scan (MaxRows on the range scan node): the scan stops after
	// offset+limit rows instead of materializing the table. The plan's
	// limit stage still runs — it slices off the OFFSET prefix.
	TopK bool
}

// Tree returns the plan as a display tree, outermost operator first.
func (p *SelectPlan) Tree() PlanNode {
	var node PlanNode
	if p.Source == nil {
		node = resultNode{}
	} else {
		node = p.Source
	}
	if p.Residual != nil {
		node = &displayNode{label: "Filter: " + p.Residual.String(), child: node}
	}
	st := p.Stmt
	if len(st.GroupBy) > 0 || selectHasAggregate(st) {
		label := "Aggregate"
		if len(st.GroupBy) > 0 {
			keys := make([]string, len(st.GroupBy))
			for i, g := range st.GroupBy {
				keys[i] = g.String()
			}
			label += " (group by: " + strings.Join(keys, ", ") + ")"
		}
		if st.Having != nil {
			label += " having " + st.Having.String()
		}
		node = &displayNode{label: label, child: node}
	}
	node = &displayNode{label: "Project: " + projectLabel(st.Items), child: node}
	if st.Distinct {
		node = &displayNode{label: "Distinct", child: node}
	}
	if len(st.OrderBy) > 0 && !p.SortPushed {
		keys := make([]string, len(st.OrderBy))
		for i, k := range st.OrderBy {
			keys[i] = k.Expr.String()
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		node = &displayNode{label: "Sort: " + strings.Join(keys, ", "), child: node}
	}
	if p.TopK {
		// Sort and limit both execute inside the ordered scan: the index
		// supplies the order and MaxRows stops it after offset+limit rows.
		label := "Top-K (limit " + st.Limit.String()
		if st.Offset != nil {
			label += " offset " + st.Offset.String()
		}
		label += "): " + orderKeyLabel(st.OrderBy[0])
		node = &displayNode{label: label, child: node}
	} else if st.Limit != nil || st.Offset != nil {
		label := "Limit"
		if st.Limit != nil {
			label += " " + st.Limit.String()
		}
		if st.Offset != nil {
			label += " offset " + st.Offset.String()
		}
		node = &displayNode{label: label, child: node}
	}
	return node
}

// orderKeyLabel renders one ORDER BY key for plan labels.
func orderKeyLabel(k OrderKey) string {
	s := k.Expr.String()
	if k.Desc {
		s += " DESC"
	}
	return s
}

func projectLabel(items []SelectItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Star && it.Table != "":
			parts[i] = it.Table + ".*"
		case it.Star:
			parts[i] = "*"
		case it.Alias != "":
			parts[i] = it.Expr.String() + " AS " + it.Alias
		default:
			parts[i] = it.Expr.String()
		}
	}
	return strings.Join(parts, ", ")
}

// WritePlan is the executable row-matching plan for one UPDATE or DELETE:
// an access path that locates candidate rows plus the full WHERE recheck.
// EXPLAIN renders its Tree() and the executor fetches rows through the same
// Access node, so the displayed access path is by construction the one that
// executes.
type WritePlan struct {
	Table  string
	Access SourceNode // *SeqScanNode, *IndexScanNode, or *IndexRangeScanNode
	Where  Expr       // full predicate; the index covers one conjunct of it
}

// Tree returns the plan as a display tree (below the "Update on t" header).
func (p *WritePlan) Tree() PlanNode {
	var node PlanNode = p.Access
	if p.Where != nil {
		node = &displayNode{label: "Filter: " + p.Where.String(), child: node}
	}
	return node
}

// matchEntries resolves the rows the access path selects, the statement's
// snapshot sees, and the WHERE clause accepts. Like SELECT index scans, the
// index path re-checks the full predicate against the visible version, so
// the access path is purely a row-count reduction. Every inspected row is
// counted in the engine's dmlRowsVisited. Write-write conflict detection
// happens later, per row, in the UPDATE/DELETE executors.
func (p *WritePlan) matchEntries(s *Session) ([]*rowEntry, error) {
	if a := s.analyze; a != nil {
		// EXPLAIN ANALYZE: attribute the rows this matching pass inspects to
		// the access-path node. The engine-wide counter delta is exact here
		// because the statement holds this table's write lock; concurrent
		// DML on other tables could in principle inflate it, which is
		// acceptable for a diagnostic annotation.
		start := time.Now()
		before := s.engine.dmlRowsVisited.Load()
		defer func() {
			a.note(p.Access, int(s.engine.dmlRowsVisited.Load()-before), time.Since(start))
		}()
	}
	t, ok := s.engine.Table(p.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: p.Table}
	}
	cols := p.Access.staticCols() // every access path is a scan of p.Table under its own name
	where, _ := bindExpr(p.Where, cols)
	env := &Env{cols: cols, sess: s}
	keep := func(v *rowVersion) (bool, error) {
		env.vals = v.vals
		return passes(where, env)
	}

	// Index access paths (equality bucket or ordered range) reduce the
	// candidate set before the per-row WHERE re-check.
	var hits []rowHit
	usable := false
	switch ix := p.Access.(type) {
	case *IndexScanNode:
		var ids []int64
		if ids, usable = t.lookupEq(ix.col, ix.Val); usable {
			// Preserve insertion order for determinism.
			sorted := append([]int64{}, ids...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			want := ix.Val.Key()
			for _, id := range sorted {
				e, live := t.byID[id]
				if !live {
					continue
				}
				if v := e.visible(s.curView); v != nil && v.vals[ix.col].Key() == want {
					hits = append(hits, rowHit{e: e, v: v})
				}
			}
		}
	case *IndexRangeScanNode:
		hits, usable = t.lookupRange(s.curView, ix.col, ix.Lo, ix.Hi, ix.LoIncl, ix.HiIncl, false, false, 0)
		if usable {
			// Write matching has no ordering contract; restore insertion
			// order so UPDATE/DELETE touch rows deterministically.
			sort.Slice(hits, func(i, j int) bool { return hits[i].e.id < hits[j].e.id })
		}
	}
	if usable {
		var out []*rowEntry
		for _, h := range hits {
			s.engine.dmlRowsVisited.Add(1)
			ok, err := keep(h.v)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, h.e)
			}
		}
		return out, nil
	}
	// Either a seq-scan plan, or the access path disappeared between plan
	// and execution (stale cached plan against a changed catalog); fall
	// back to a full scan.

	var out []*rowEntry
	var evalErr error
	_ = t.visibleRows(s.curView, func(e *rowEntry, v *rowVersion) error {
		if evalErr != nil {
			return nil
		}
		s.engine.dmlRowsVisited.Add(1)
		ok, err := keep(v)
		if err != nil {
			evalErr = err
			return nil
		}
		if ok {
			out = append(out, e)
		}
		return nil
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// Plan is a planned statement, ready to explain or execute.
type Plan struct {
	stmt   Stmt
	sel    *SelectPlan // non-nil for SELECT
	write  *WritePlan  // non-nil for UPDATE/DELETE
	root   PlanNode
	header string // extra first line for DML plans ("Insert on t ...")
}

// Root returns the top plan node.
func (p *Plan) Root() PlanNode { return p.root }

// Select returns the SELECT pipeline plan, or nil for non-SELECT statements.
func (p *Plan) Select() *SelectPlan { return p.sel }

// Write returns the UPDATE/DELETE row-matching plan, or nil.
func (p *Plan) Write() *WritePlan { return p.write }

// Explain renders the plan tree, one operator per line, indented by depth.
func (p *Plan) Explain() string {
	var lines []string
	if p.header != "" {
		lines = append(lines, p.header)
	}
	var walk func(n PlanNode, depth int)
	walk = func(n PlanNode, depth int) {
		indent := strings.Repeat("  ", depth)
		prefix := ""
		if depth > 0 || p.header != "" {
			prefix = "-> "
		}
		lines = append(lines, indent+prefix+n.Label())
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	if p.root != nil {
		depth := 0
		if p.header != "" {
			depth = 1
		}
		walk(p.root, depth)
	}
	return strings.Join(lines, "\n")
}

// ExplainRows renders the plan as a one-column result set, the shape EXPLAIN
// statements return.
func (p *Plan) ExplainRows() *Result {
	text := p.Explain()
	res := &Result{Columns: []string{"QUERY PLAN"}}
	for _, line := range strings.Split(text, "\n") {
		res.Rows = append(res.Rows, []Value{NewText(line)})
	}
	return res
}
