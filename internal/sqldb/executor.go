package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Exec parses and executes one SQL statement under the session's user. It is
// the cache-aware entry point: a hot (user, SQL) pair whose plan is still
// valid against the catalog version skips the lexer, parser, and planner
// entirely (the engine's prepared-statement layer, see plancache.go).
func (s *Session) Exec(sql string) (*Result, error) {
	// A forced-seq-scan session neither serves nor produces cached plans:
	// cache entries are shared engine-wide, and an optimized entry would
	// defeat the forcing just as a forced entry would pessimize everyone
	// else.
	if !s.forceSeqScan {
		if ent, ok := s.engine.plans.lookup(s.user, sql); ok {
			if res, done, err := s.execCached(ent, sql); done {
				return res, err
			}
		}
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	return s.execStmt(stmt, sql)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	stmts, err := ParseScript(sql)
	if err != nil {
		return nil, fmt.Errorf("syntax error: %w", err)
	}
	var out []*Result
	for _, st := range stmts {
		r, err := s.ExecStmt(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MustExec executes a statement and panics on error; intended for test and
// benchmark fixtures.
func (s *Session) MustExec(sql string) *Result {
	r, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("MustExec(%q): %v", sql, err))
	}
	return r
}

// isReadOnly classifies a statement for engine locking: read-only
// statements run under the shared engine lock so independent sessions can
// execute SELECTs (and EXPLAINs) in parallel; everything else serializes on
// the writer lock.
func isReadOnly(stmt Stmt) bool {
	switch st := stmt.(type) {
	case *SelectStmt:
		return true
	case *ExplainStmt:
		// Plain EXPLAIN only plans; EXPLAIN ANALYZE executes the inner
		// statement and inherits its lock class.
		if st.Analyze {
			return isReadOnly(st.Stmt)
		}
		return true
	}
	return false
}

// holdsEngineLock classifies writer statements by how they take the engine
// (heap/catalog) write lock. DML and transaction control hold only the
// writer mutex for the statement and take the engine lock for short version
// installation and commit-stamping critical sections, so concurrent readers
// never stall behind a long write statement. DDL and grants mutate the
// catalog in many places and keep the whole-statement exclusive lock.
func holdsEngineLock(stmt Stmt) bool {
	if ex, ok := stmt.(*ExplainStmt); ok && ex.Analyze {
		stmt = ex.Stmt
	}
	switch stmt.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt,
		*BeginStmt, *CommitStmt, *RollbackStmt:
		return false
	}
	return true
}

// ExecStmt executes a parsed statement. The session lock serializes
// statements on this session (its transaction state is single-stream, like
// a database connection); the engine lock is shared for read-only
// statements so distinct sessions execute SELECTs in parallel. With no SQL
// text to key on, pre-parsed statements never touch the plan cache.
func (s *Session) ExecStmt(stmt Stmt) (*Result, error) {
	return s.execStmt(stmt, "")
}

// execStmt is the cold execution path: plan fresh and, when sql is non-empty
// and the statement is cacheable, record the prepared form for next time.
// The durability wait happens here, after every lock is released: the commit
// is already in the WAL writer's batch, so concurrent committers pile into
// one group fsync instead of serializing it under the engine lock.
func (s *Session) execStmt(stmt Stmt, sql string) (*Result, error) {
	start := time.Now()
	res, tok, err := s.execStmtLocked(stmt, sql)
	if werr := tok.wait(); werr != nil && err == nil {
		err = fmt.Errorf("commit applied in memory but not durable: %w", werr)
	}
	// Latency and slow-query recording happen after every lock is released
	// and the durability wait is over, so the measured time is what the
	// client experienced and recording can never extend a critical section.
	s.noteStmtDone(stmt, sql, start, res, err)
	return res, err
}

func (s *Session) execStmtLocked(stmt Stmt, sql string) (*Result, *syncToken, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engine
	readOnly := isReadOnly(stmt)
	engineLocked := false
	if readOnly {
		e.mu.RLock()
		defer e.mu.RUnlock()
	} else {
		// DML locks just the tables it touches (plus FK neighbors); DDL,
		// grants, and transaction control take the all-tables lock.
		unlock := e.lockForWrite(stmt)
		defer unlock()
		if holdsEngineLock(stmt) {
			engineLocked = true
			e.mu.Lock()
			defer e.mu.Unlock()
		}
	}
	// Establish the statement's read snapshot after the locks are held: the
	// transaction's fixed snapshot under snapshot isolation, a fresh view of
	// the commit clock otherwise.
	s.curView = s.stmtView()

	if err := s.checkStmtPrivileges(stmt); err != nil {
		return nil, nil, err
	}

	// Transaction control bypasses the statement undo scope.
	switch st := stmt.(type) {
	case *BeginStmt:
		if err := s.begin(st.Level); err != nil {
			return nil, nil, err
		}
		return &Result{Message: "BEGIN"}, nil, nil
	case *CommitStmt:
		tok, err := s.commitTx()
		if err != nil {
			return nil, nil, err
		}
		return &Result{Message: "COMMIT"}, tok, nil
	case *RollbackStmt:
		if err := s.rollbackTx(); err != nil {
			return nil, nil, err
		}
		return &Result{Message: "ROLLBACK"}, nil, nil
	}

	// A degraded engine is read-only: refuse write statements before they do
	// any memory work, so the heap never diverges from what the WAL can
	// honestly make durable. SELECT/EXPLAIN (and the transaction control
	// handled above) keep working.
	if !readOnly {
		if derr := e.checkWritable(); derr != nil {
			return nil, nil, derr
		}
	}

	// A transaction aborted by a write conflict refuses further statements
	// until it is rolled back (PostgreSQL's aborted-transaction state).
	if s.txn != nil && s.txn.aborted {
		return nil, nil, fmt.Errorf("current transaction is aborted by a write conflict; ROLLBACK and retry: %w", ErrWriteConflict)
	}

	var ent *cachedStmt
	if sql != "" {
		if ent = s.prepare(stmt); ent != nil {
			e.plans.misses.Add(1)
		}
	}
	s.beginStmt()
	var res *Result
	var err error
	if ent != nil {
		//sqlvet:ignore lockorder -- the channel waits runPrepared can reach are the parallel scanner's, which only runs for SELECTs, and those execute under e.mu.RLock (the e.mu.Lock branch above is taken only for DDL-class statements)
		res, err = s.runPrepared(ent)
	} else {
		//sqlvet:ignore lockorder -- same split as runPrepared: dispatch's blocking paths are the read-only parallel scan, never reached on the DDL branch that holds e.mu exclusively
		res, err = s.dispatch(stmt)
	}
	tok := s.endStmt(err, engineLocked)
	if s.grantTok != nil {
		// GRANT/REVOKE parked its WAL claim on the session; fold it into the
		// statement token so the durability wait happens after unlock.
		tok = joinTokens(tok, s.grantTok)
		s.grantTok = nil
	}
	s.noteConflict(err)
	if err == nil && ent != nil {
		e.plans.put(s.user, sql, ent)
	}
	return res, tok, err
}

// noteConflict records a serialization failure: the conflict counter ticks,
// and an open transaction is marked aborted — its snapshot is stale, so the
// only useful continuation is ROLLBACK and retry. Degraded-engine refusals
// are retryable too but are not conflicts: they neither count here nor
// poison the transaction (its snapshot is still good for reads).
func (s *Session) noteConflict(err error) {
	if err == nil || !errors.Is(err, ErrWriteConflict) {
		return
	}
	s.engine.writeConflicts.Add(1)
	if s.txn != nil {
		s.txn.aborted = true
		s.engine.metrics.txnAborts.Add(1)
	}
}

// execCached executes a plan-cache hit under the entry's lock class. done is
// false when the entry is stale (the catalog version moved since it was
// planned): the caller falls back to the cold path, which re-plans and
// replaces the entry. The version check happens under the engine lock, so a
// fresh entry cannot be invalidated by DDL mid-execution.
func (s *Session) execCached(ent *cachedStmt, sql string) (res *Result, done bool, err error) {
	start := time.Now()
	res, done, tok, err := s.execCachedLocked(ent, sql)
	if werr := tok.wait(); werr != nil && err == nil {
		err = fmt.Errorf("commit applied in memory but not durable: %w", werr)
	}
	if done {
		// A stale entry (done=false) falls through to the cold path, which
		// records the whole statement itself.
		s.noteStmtDone(ent.stmt, sql, start, res, err)
	}
	return res, done, err
}

func (s *Session) execCachedLocked(ent *cachedStmt, sql string) (res *Result, done bool, tok *syncToken, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engine
	if ent.readOnly {
		e.mu.RLock()
		defer e.mu.RUnlock()
	} else {
		// Cacheable writers are DML, which never holds the engine lock for
		// the whole statement (see holdsEngineLock). The entry carries its
		// precomputed lock set, so a hit skips the catalog walk.
		unlock := e.lockForWriteNames(ent.stmt, ent.lockNames)
		defer unlock()
	}
	s.curView = s.stmtView()
	if ent.version != e.catalogVersion.Load() {
		// Evict rather than leave the stale entry riding the LRU: if the
		// cold path fails (table dropped), nothing would ever replace it.
		e.plans.remove(s.user, sql)
		return nil, false, nil, nil
	}
	e.plans.hits.Add(1)
	if !ent.readOnly {
		// Same read-only gate as the cold path: a degraded engine refuses
		// cached DML before any memory mutation.
		if derr := e.checkWritable(); derr != nil {
			return nil, true, nil, derr
		}
	}
	if s.txn != nil && s.txn.aborted {
		return nil, true, nil, fmt.Errorf("current transaction is aborted by a write conflict; ROLLBACK and retry: %w", ErrWriteConflict)
	}
	// Privileges are re-checked on every execution; a grant change also
	// bumps the catalog version, but direct Grants() mutations make that
	// bump advisory rather than load-bearing.
	if err := s.checkStmtPrivileges(ent.stmt); err != nil {
		return nil, true, nil, err
	}
	s.beginStmt()
	res, err = s.runPrepared(ent)
	tok = s.endStmt(err, false)
	s.noteConflict(err)
	return res, true, tok, err
}

// prepare builds the cacheable form of a statement pinned to the current
// catalog version: the SELECT pipeline plan or the UPDATE/DELETE row-match
// plan. INSERT caches as parsed-only (a hit still skips lexer and parser).
// Everything else (DDL, grants, EXPLAIN) returns nil and is never cached.
func (s *Session) prepare(stmt Stmt) *cachedStmt {
	if s.forceSeqScan {
		return nil
	}
	ent := &cachedStmt{
		stmt:     stmt,
		readOnly: isReadOnly(stmt),
		version:  s.engine.catalogVersion.Load(),
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		ent.sel = s.planSelect(st)
	case *UpdateStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil
		}
		ent.write = s.planWrite(st.Table, st.Where)
	case *DeleteStmt:
		if _, ok := s.engine.Table(st.Table); !ok {
			return nil
		}
		ent.write = s.planWrite(st.Table, st.Where)
	case *InsertStmt:
	default:
		return nil
	}
	if !ent.readOnly {
		// prepare runs with the statement's write locks already held, so the
		// catalog is stable; the names stay valid for the entry's lifetime
		// because any DDL bumps the catalog version and evicts it.
		ent.lockNames = s.engine.writeLockNames(stmt)
	}
	return ent
}

// runPrepared executes a prepared statement's stored plan. Plans and
// statement trees are immutable during execution, so one entry may run in
// many sessions at once (SELECT hits share the engine read lock).
func (s *Session) runPrepared(ent *cachedStmt) (*Result, error) {
	switch st := ent.stmt.(type) {
	case *SelectStmt:
		if err := s.checkColumnPrivileges(st); err != nil {
			return nil, err
		}
		return s.runSelectPlan(ent.sel, nil)
	case *UpdateStmt:
		return s.execUpdate(st, ent.write)
	case *DeleteStmt:
		return s.execDelete(st, ent.write)
	case *InsertStmt:
		return s.execInsert(st)
	}
	return nil, fmt.Errorf("unsupported statement type %T", ent.stmt)
}

func (s *Session) dispatch(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		return s.execSelect(st, nil)
	case *ExplainStmt:
		if st.Analyze {
			return s.execExplainAnalyze(st)
		}
		plan, err := s.planStmt(st.Stmt)
		if err != nil {
			return nil, err
		}
		return plan.ExplainRows(), nil
	case *InsertStmt:
		return s.execInsert(st)
	case *UpdateStmt:
		return s.execUpdate(st, nil)
	case *DeleteStmt:
		return s.execDelete(st, nil)
	case *CreateTableStmt:
		return s.execCreateTable(st)
	case *DropTableStmt:
		return s.execDropTable(st)
	case *CreateViewStmt:
		return s.execCreateView(st)
	case *DropViewStmt:
		return s.execDropView(st)
	case *CreateIndexStmt:
		return s.execCreateIndex(st)
	case *AlterTableStmt:
		return s.execAlterTable(st)
	case *GrantStmt:
		return s.execGrant(st)
	case *RevokeStmt:
		return s.execRevoke(st)
	}
	return nil, fmt.Errorf("unsupported statement type %T", stmt)
}

// checkStmtPrivileges enforces database-side privileges before execution
// (the engine's native security layer; BridgeScope's tool-side verification
// in internal/core is an additional, earlier gate).
func (s *Session) checkStmtPrivileges(stmt Stmt) error {
	g := s.engine.grants
	switch st := stmt.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil
	case *ExplainStmt:
		// Explaining a statement requires the privileges to run it.
		return s.checkStmtPrivileges(st.Stmt)
	case *GrantStmt, *RevokeStmt:
		if !g.IsSuperuser(s.user) {
			return &PermissionError{User: s.user, Action: ActionGrant, Object: "database"}
		}
		return nil
	case *CreateTableStmt:
		if !g.Has(s.user, ActionCreate, "*") {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Table}
		}
		return nil
	case *CreateViewStmt:
		if !g.Has(s.user, ActionCreate, "*") {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Name}
		}
		// Creating a view requires SELECT on its underlying tables.
		for _, tbl := range ReferencedTables(st.Query) {
			if !g.Has(s.user, ActionSelect, tbl) {
				return &PermissionError{User: s.user, Action: ActionSelect, Object: tbl}
			}
		}
		return nil
	case *DropViewStmt:
		if !g.Has(s.user, ActionDrop, st.Name) {
			return &PermissionError{User: s.user, Action: ActionDrop, Object: st.Name}
		}
		return nil
	case *CreateIndexStmt:
		if !g.Has(s.user, ActionCreate, "*") && !g.Has(s.user, ActionAlter, st.Table) {
			return &PermissionError{User: s.user, Action: ActionCreate, Object: st.Table}
		}
		return nil
	}
	action := stmt.StmtAction()
	for _, tbl := range ReferencedTables(stmt) {
		// Reads embedded in writes (subqueries) need SELECT; the main table
		// needs the statement action.
		need := action
		if _, ok := stmt.(*SelectStmt); !ok {
			if !strings.EqualFold(tbl, mainTable(stmt)) {
				need = ActionSelect
			}
		}
		if !g.Has(s.user, need, tbl) {
			return &PermissionError{User: s.user, Action: need, Object: tbl}
		}
	}
	return nil
}

func mainTable(stmt Stmt) string {
	switch st := stmt.(type) {
	case *InsertStmt:
		return st.Table
	case *UpdateStmt:
		return st.Table
	case *DeleteStmt:
		return st.Table
	case *DropTableStmt:
		return st.Table
	case *AlterTableStmt:
		return st.Table
	}
	return ""
}

// rowSet is an intermediate relation: a column layout plus rows.
type rowSet struct {
	cols []envCol
	rows [][]Value
}

// passes evaluates a predicate against the row env points at: NULL and false
// reject, a nil predicate accepts.
func passes(cond Expr, env *Env) (bool, error) {
	if cond == nil {
		return true, nil
	}
	v, err := cond.Eval(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Truthy(), nil
}

// scanTable is the fused table scan: morsels of the heap are
// visibility-checked against the statement snapshot and, when cond is
// non-nil, filtered in the same pass, so rejected rows never materialize.
// Every visible row counts in scanRowsVisited, filtered out or not.
func (s *Session) scanTable(name, alias string, cond Expr, outer *Env) (*rowSet, error) {
	t, ok := s.engine.Table(name)
	if !ok {
		// Views expand to their stored query's result, aliased under the
		// view's name (owner-style privileges: the outer statement needed
		// SELECT on the view itself, not on its underlying tables).
		if v, isView := s.engine.ViewByName(name); isView {
			rs, err := s.scanView(v, alias)
			if err != nil {
				return nil, err
			}
			return s.filterRows(cond, rs, outer)
		}
		return nil, &NotFoundError{Kind: "table", Name: name}
	}
	cols := tableEnvCols(t, alias)
	bound, safe := bindExpr(cond, cols)
	//sqlvet:ignore mvccvisibility -- morsel fan-out snapshots the heap slice under the engine read lock and every row still goes through visible() below before it is emitted
	rows := t.rows
	sn := s.curView
	workers, slots := s.fanOut(len(rows), safe)
	parts := make([][][]Value, chunkCount(len(rows), morselSize))
	err := s.morsels(len(rows), workers, slots, cols, outer, func(env *Env, m, start, end int) error {
		buf := make([][]Value, 0, end-start)
		var visited int64
		defer func() { s.engine.scanRowsVisited.Add(visited) }()
		for _, entry := range rows[start:end] {
			v := entry.visible(sn)
			if v == nil {
				continue
			}
			visited++
			env.vals = v.vals
			keep, err := passes(bound, env)
			if err != nil {
				return err
			}
			if keep {
				buf = append(buf, v.vals)
			}
		}
		parts[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rowSet{cols: cols, rows: concatParts(parts)}, nil
}

// scanView materializes a view into a rowSet. The stored AST is shared
// across sessions, which is safe because execution never mutates statement
// trees (subqueries run through the Env's session, see Env.sess).
func (s *Session) scanView(v *View, alias string) (*rowSet, error) {
	res, err := s.execSelect(v.Query, nil)
	if err != nil {
		return nil, fmt.Errorf("view %q: %w", v.Name, err)
	}
	qual := strings.ToLower(alias)
	if qual == "" {
		qual = strings.ToLower(v.Name)
	}
	rs := &rowSet{cols: make([]envCol, len(res.Columns)), rows: res.Rows}
	for i, c := range res.Columns {
		rs.cols[i] = envCol{table: qual, name: strings.ToLower(c)}
	}
	return rs, nil
}

// filterRows keeps the rows of src that satisfy cond: the residual predicate
// above the source tree, and the filter above any source that is not a plain
// table scan. A nil predicate passes src through unchanged.
func (s *Session) filterRows(cond Expr, src *rowSet, outer *Env) (*rowSet, error) {
	if cond == nil {
		return src, nil
	}
	bound, safe := bindExpr(cond, src.cols)
	workers, slots := s.fanOut(len(src.rows), safe)
	parts := make([][][]Value, chunkCount(len(src.rows), morselSize))
	err := s.morsels(len(src.rows), workers, slots, src.cols, outer, func(env *Env, m, start, end int) error {
		var buf [][]Value
		for _, vals := range src.rows[start:end] {
			env.vals = vals
			keep, err := passes(bound, env)
			if err != nil {
				return err
			}
			if keep {
				buf = append(buf, vals)
			}
		}
		parts[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rowSet{cols: src.cols, rows: concatParts(parts)}, nil
}

// execSelect runs a SELECT and returns its result. outer provides the
// enclosing row for correlated subqueries.
func (s *Session) execSelect(st *SelectStmt, outer *Env) (*Result, error) {
	if err := s.checkColumnPrivileges(st); err != nil {
		return nil, err
	}
	// Lower the statement into a plan (scan/index-scan selection, predicate
	// pushdown, join strategy) and run it.
	return s.runSelectPlan(s.planSelect(st), outer)
}

// runSelectPlan executes a SELECT plan — freshly built or served from the
// plan cache — through the source tree and the projection/aggregation
// pipeline above it.
func (s *Session) runSelectPlan(plan *SelectPlan, outer *Env) (*Result, error) {
	st := plan.Stmt

	// FROM-less SELECT: the select list evaluates once, against the outer env.
	if plan.Source == nil {
		p, err := s.projectRows(st, false, &rowSet{rows: [][]Value{nil}}, nil, false, outer)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: p.cols, Rows: p.rows}, nil
	}

	src, err := s.runSource(plan.Source, outer)
	if err != nil {
		return nil, err
	}
	// Residual predicate: conjuncts the planner could not push into the
	// source tree (multi-source, correlated, or subquery conditions).
	src, err = s.filterRows(plan.Residual, src, outer)
	if err != nil {
		return nil, err
	}

	grouped := len(st.GroupBy) > 0 || selectHasAggregate(st)
	var groups []*groupResult
	if grouped {
		if groups, err = s.groupRows(st, src, outer); err != nil {
			return nil, err
		}
	}
	// SortPushed plans emit rows in ORDER BY order straight from the ordered
	// index scan; the sort stage is skipped exactly as EXPLAIN shows (no
	// Sort node in the tree).
	sorted := len(st.OrderBy) > 0 && !plan.SortPushed
	p, err := s.projectRows(st, sorted, src, groups, grouped, outer)
	if err != nil {
		return nil, err
	}
	if st.Distinct {
		s.distinctRows(p)
	}
	if sorted {
		p.sort()
	}
	rows, err := s.applyLimitOffset(st, p.rows)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.cols, Rows: rows}, nil
}

// joinSets joins two relations: a hash join for an inner join on one column
// equality, a nested loop for everything else.
func (s *Session) joinSets(left, right *rowSet, kind JoinKind, on Expr, outer *Env) (*rowSet, error) {
	out := &rowSet{cols: append(append([]envCol{}, left.cols...), right.cols...)}
	if kind == JoinInner && on != nil {
		if li, ri, ok := equiJoinCols(on, left.cols, right.cols); ok {
			out.rows = s.hashJoin(left.rows, right.rows, li, ri)
			return out, nil
		}
	}

	bound, _ := bindExpr(on, out.cols)
	env := &Env{cols: out.cols, outer: outer, sess: s}
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			combined := make([]Value, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			env.vals = combined
			keep, err := passes(bound, env)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			matched = true
			out.rows = append(out.rows, combined)
		}
		if kind == JoinLeft && !matched {
			// The zero Value is NULL: the right side stays null-extended.
			combined := make([]Value, len(lrow)+len(right.cols))
			copy(combined, lrow)
			out.rows = append(out.rows, combined)
		}
	}
	return out, nil
}

// hashJoin is the equi-join on left[li] = right[ri]. Build-side keys are
// computed in morsels and the table is built sequentially from them
// (preserving bucket order) over a shared index arena, so building allocates
// O(1) slices instead of one per distinct key; the probe side is scanned in
// morsels whose output buffers are concatenated in morsel order.
func (s *Session) hashJoin(left, right [][]Value, li, ri int) [][]Value {
	workers, slots := s.fanOut(len(left)+len(right), true)
	rkeys := make([]string, len(right))
	// Key extraction and the probe below evaluate no expression: they cannot fail.
	_ = runChunked(slots, workers, len(right), morselSize, func(_, start, end int) error {
		for i := start; i < end; i++ {
			rkeys[i] = right[i][ri].Key()
		}
		return nil
	})
	ht := make(map[string][]int, len(right))
	arena := make([]int, 0, len(right))
	for idx, k := range rkeys {
		if b, hit := ht[k]; hit {
			ht[k] = append(b, idx)
		} else {
			arena = append(arena, idx)
			ht[k] = arena[len(arena)-1 : len(arena) : len(arena)]
		}
	}
	parts := make([][][]Value, chunkCount(len(left), morselSize))
	_ = runChunked(slots, workers, len(left), morselSize, func(m, start, end int) error {
		var buf [][]Value
		for _, lrow := range left[start:end] {
			if lrow[li].IsNull() {
				continue
			}
			for _, idx := range ht[lrow[li].Key()] {
				rrow := right[idx]
				combined := make([]Value, 0, len(lrow)+len(rrow))
				combined = append(combined, lrow...)
				combined = append(combined, rrow...)
				buf = append(buf, combined)
			}
		}
		parts[m] = buf
		return nil
	})
	return concatParts(parts)
}

// uniqueCol resolves c in cols for a plan decision (hash join, index or
// range scan, predicate pushdown): the column counts only when exactly one
// matches, qualified or not. See resolveCol for how this differs from
// Env.Lookup.
func uniqueCol(c *ColumnRef, cols []envCol) int {
	idx, matches := resolveCol(cols, strings.ToLower(c.Table), strings.ToLower(c.Name))
	if matches != 1 {
		return -1
	}
	return idx
}

// equiJoinCols recognizes `a.x = b.y` ON clauses and resolves the two sides
// to left/right column positions.
func equiJoinCols(on Expr, leftCols, rightCols []envCol) (int, int, bool) {
	be, ok := on.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return 0, 0, false
	}
	lc, ok1 := be.Left.(*ColumnRef)
	rc, ok2 := be.Right.(*ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	li := uniqueCol(lc, leftCols)
	ri := uniqueCol(rc, rightCols)
	if li >= 0 && ri >= 0 {
		return li, ri, true
	}
	// The ON clause may name them in the other order.
	li = uniqueCol(rc, leftCols)
	ri = uniqueCol(lc, rightCols)
	if li >= 0 && ri >= 0 {
		return li, ri, true
	}
	return 0, 0, false
}

// indexableEq finds a top-level `col = literal` conjunct and resolves the
// column position.
func indexableEq(where Expr, cols []envCol) (int, Value, bool) {
	switch e := where.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "AND":
			if c, v, ok := indexableEq(e.Left, cols); ok {
				return c, v, ok
			}
			return indexableEq(e.Right, cols)
		case "=":
			if cr, ok := e.Left.(*ColumnRef); ok {
				if lit, ok2 := e.Right.(*Literal); ok2 {
					if i := uniqueCol(cr, cols); i >= 0 {
						return i, lit.Val, true
					}
				}
			}
			if cr, ok := e.Right.(*ColumnRef); ok {
				if lit, ok2 := e.Left.(*Literal); ok2 {
					if i := uniqueCol(cr, cols); i >= 0 {
						return i, lit.Val, true
					}
				}
			}
		}
	}
	return 0, Value{}, false
}

func selectHasAggregate(st *SelectStmt) bool {
	for _, it := range st.Items {
		if it.Expr != nil && HasAggregate(it.Expr) {
			return true
		}
	}
	if st.Having != nil && HasAggregate(st.Having) {
		return true
	}
	for _, k := range st.OrderBy {
		if HasAggregate(k.Expr) {
			return true
		}
	}
	return false
}

type groupResult struct {
	firstRow []Value
	rows     [][]Value
	agg      map[Expr]Value
}

// collectAggNodes gathers every distinct aggregate call node in the select
// list, HAVING, and ORDER BY. Group results are keyed by these original node
// pointers (see Env.agg), so the set must be collected from the statement
// tree itself, never from a rewritten copy.
func collectAggNodes(st *SelectStmt) []*FuncExpr {
	var aggNodes []*FuncExpr
	seen := map[*FuncExpr]bool{}
	scan := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if f, ok := x.(*FuncExpr); ok && f.IsAggregate() && !seen[f] {
				seen[f] = true
				aggNodes = append(aggNodes, f)
			}
		})
	}
	for _, it := range st.Items {
		scan(it.Expr)
	}
	scan(st.Having)
	for _, k := range st.OrderBy {
		scan(k.Expr)
	}
	return aggNodes
}

// groupRows partitions rows by the GROUP BY keys and computes every
// aggregate node once per group. Keys are computed over the input in
// morsels, the hash build runs sequentially over them (preserving
// first-appearance group order and within-group row order, which float
// SUM/AVG depend on), and aggregates are then computed group by group.
func (s *Session) groupRows(st *SelectStmt, src *rowSet, outer *Env) ([]*groupResult, error) {
	aggNodes := collectAggNodes(st)
	b := binder{cols: src.cols}
	groupExprs := b.bindAll(st.GroupBy)
	aggArgs := make([]Expr, len(aggNodes))
	for i, f := range aggNodes {
		if !f.Star && len(f.Args) == 1 {
			aggArgs[i] = b.bind(f.Args[0])
		}
	}
	workers, slots := s.fanOut(len(src.rows), !b.serial)

	var order []*groupResult
	if len(groupExprs) == 0 {
		// No GROUP BY: one group over the whole input — also over zero rows,
		// which is how SELECT COUNT(*) FROM empty answers 0. The zero Value is
		// NULL, so non-aggregated items of that group read as NULL.
		g := &groupResult{firstRow: make([]Value, len(src.cols)), rows: src.rows}
		if len(src.rows) > 0 {
			g.firstRow = src.rows[0]
		}
		order = []*groupResult{g}
	} else {
		keys := make([]string, len(src.rows))
		err := s.morsels(len(src.rows), workers, slots, src.cols, outer, func(env *Env, _, start, end int) error {
			var buf []byte
			for i := start; i < end; i++ {
				buf = buf[:0]
				env.vals = src.rows[i]
				for _, ge := range groupExprs {
					gv, err := ge.Eval(env)
					if err != nil {
						return err
					}
					buf = appendKeySegment(buf, gv)
				}
				keys[i] = string(buf)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		keyed := map[string]*groupResult{}
		for i, vals := range src.rows {
			g, ok := keyed[keys[i]]
			if !ok {
				g = &groupResult{firstRow: vals}
				keyed[keys[i]] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, vals)
		}
	}

	err := runChunked(slots, workers, len(order), 1, func(gi, _, _ int) error {
		g := order[gi]
		g.agg = make(map[Expr]Value, len(aggNodes))
		env := &Env{cols: src.cols, outer: outer, sess: s}
		for i, f := range aggNodes {
			v, err := aggregateGroup(f, aggArgs[i], env, g.rows)
			if err != nil {
				return err
			}
			g.agg[f] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return order, nil
}

// aggregateGroup computes one aggregate over one group's rows. arg is the
// bound argument expression and env is re-pointed at each row. Values are
// collected in within-group row order.
func aggregateGroup(f *FuncExpr, arg Expr, env *Env, rows [][]Value) (Value, error) {
	if f.Star {
		if f.Name != "COUNT" {
			return Value{}, fmt.Errorf("%s(*) is not supported", f.Name)
		}
		return NewInt(int64(len(rows))), nil
	}
	if len(f.Args) != 1 {
		return Value{}, fmt.Errorf("%s expects exactly one argument", f.Name)
	}
	var vals []Value
	distinct := map[string]bool{}
	for _, row := range rows {
		env.vals = row
		v, err := arg.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if f.Distinct {
			k := v.Key()
			if distinct[k] {
				continue
			}
			distinct[k] = true
		}
		vals = append(vals, v)
	}
	return finishAggregate(f, vals)
}

// finishAggregate folds the collected (non-NULL, DISTINCT-deduped) argument
// values according to the aggregate's semantics.
func finishAggregate(f *FuncExpr, vals []Value) (Value, error) {
	switch f.Name {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok {
				return Value{}, fmt.Errorf("%s requires numeric values, got %s", f.Name, v.Kind)
			}
			if v.Kind != KindInt {
				allInt = false
			}
			sum += fv
		}
		if f.Name == "AVG" {
			return NewFloat(sum / float64(len(vals))), nil
		}
		if allInt {
			return NewInt(int64(sum)), nil
		}
		return NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := Compare(v, best)
			if err != nil {
				return Value{}, err
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Value{}, fmt.Errorf("unknown aggregate %s", f.Name)
}

// projItem is one bound select-list entry: the source positions a star
// copies, or an expression.
type projItem struct {
	star []int
	expr Expr
}

// sortKey is one bound ORDER BY key. An ordinal, or a bare name matching an
// output column (aliases shadow source columns), sorts by that output
// position. Anything else is an expression over the source row: it is
// evaluated during projection, while the Env still points at the row, and
// kept in that row's extra slot.
type sortKey struct {
	out  int // >= 0: output position
	expr Expr
	slot int
	desc bool
}

// projection is the output of the select list: the rows, and for an unpushed
// ORDER BY the bound keys with the per-row values of the expression keys.
type projection struct {
	cols  []string
	rows  [][]Value
	keys  []sortKey
	extra [][]Value
}

// selectList binds the select list, expanding stars, and names the output
// columns.
func (b *binder) selectList(items []SelectItem) (plan []projItem, cols []string) {
	plan = make([]projItem, len(items))
	for i, it := range items {
		if !it.Star {
			plan[i].expr = b.bind(it.Expr)
			cols = append(cols, itemName(it))
			continue
		}
		for j, c := range b.cols {
			if it.Table == "" || strings.EqualFold(c.table, it.Table) {
				plan[i].star = append(plan[i].star, j)
				cols = append(cols, c.name)
			}
		}
	}
	return plan, cols
}

// orderKeys binds the ORDER BY keys against the output columns. Ordinals are
// checked here, once, against the select-list width — not per row, where an
// empty result would let an invalid position through. nextra is the number
// of keys that need a per-row slot.
func (b *binder) orderKeys(keys []OrderKey, outCols []string) (out []sortKey, nextra int, err error) {
	out = make([]sortKey, len(keys))
	for i, k := range keys {
		sk := sortKey{out: -1, desc: k.Desc}
		if lit, ok := k.Expr.(*Literal); ok && lit.Val.Kind == KindInt {
			if lit.Val.I < 1 || lit.Val.I > int64(len(outCols)) {
				return nil, 0, fmt.Errorf("ORDER BY position %d is out of range", lit.Val.I)
			}
			sk.out = int(lit.Val.I) - 1
		} else if cr, ok := k.Expr.(*ColumnRef); ok && cr.Table == "" {
			want := strings.ToLower(cr.Name)
			for j, c := range outCols {
				if strings.ToLower(c) == want {
					sk.out = j
					break
				}
			}
		}
		if sk.out < 0 {
			sk.expr, sk.slot = b.bind(k.Expr), nextra
			nextra++
		}
		out[i] = sk
	}
	return out, nextra, nil
}

// projectRows evaluates the select list over src — one output row per input
// row, or per group when grouped, after HAVING — and, when the sort stage
// will run, the ORDER BY keys that are not output columns.
func (s *Session) projectRows(st *SelectStmt, sorted bool, src *rowSet, groups []*groupResult, grouped bool, outer *Env) (*projection, error) {
	b := binder{cols: src.cols}
	plan, cols := b.selectList(st.Items)
	p := &projection{cols: cols}
	n := len(src.rows)
	var having Expr
	if grouped {
		n = len(groups)
		having = b.bind(st.Having)
	}
	nextra := 0
	if sorted {
		var err error
		if p.keys, nextra, err = b.orderKeys(st.OrderBy, cols); err != nil {
			return nil, err
		}
	}
	workers, slots := s.fanOut(n, !b.serial)
	p.rows = make([][]Value, n)
	if nextra > 0 {
		p.extra = make([][]Value, n)
	}
	err := s.morsels(n, workers, slots, src.cols, outer, func(env *Env, _, start, end int) error {
		var slab []Value // one allocation holds the morsel's sort-key values
		if nextra > 0 {
			slab = make([]Value, (end-start)*nextra)
		}
		for i := start; i < end; i++ {
			if grouped {
				env.vals, env.agg = groups[i].firstRow, groups[i].agg
				keep, err := passes(having, env)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			} else {
				env.vals = src.rows[i]
			}
			row := make([]Value, 0, len(cols))
			for _, it := range plan {
				if it.expr == nil {
					for _, j := range it.star {
						row = append(row, env.vals[j])
					}
					continue
				}
				v, err := it.expr.Eval(env)
				if err != nil {
					return err
				}
				row = append(row, v)
			}
			p.rows[i] = row
			if nextra > 0 {
				p.extra[i], slab = slab[:nextra:nextra], slab[nextra:]
				for _, k := range p.keys {
					if k.out >= 0 {
						continue
					}
					v, err := k.expr.Eval(env)
					if err != nil {
						return err
					}
					p.extra[i][k.slot] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if having != nil {
		// Groups HAVING rejected left their slot nil; close the gaps.
		w := 0
		for i, row := range p.rows {
			if row == nil {
				continue
			}
			p.rows[w] = row
			if p.extra != nil {
				p.extra[w] = p.extra[i]
			}
			w++
		}
		p.rows = p.rows[:w]
		if p.extra != nil {
			p.extra = p.extra[:w]
		}
	}
	return p, nil
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

// distinctRows drops repeated output rows, keeping first appearances in
// order (each with its sort-key values). Key computation is pure per-row
// work and runs in morsels; the dedup itself is sequential.
func (s *Session) distinctRows(p *projection) {
	keys := make([]string, len(p.rows))
	workers, slots := s.fanOut(len(p.rows), true)
	// Building a key evaluates no expression: it cannot fail.
	_ = runChunked(slots, workers, len(p.rows), morselSize, func(_, start, end int) error {
		var buf []byte
		for i := start; i < end; i++ {
			buf = buf[:0]
			for _, v := range p.rows[i] {
				buf = appendKeySegment(buf, v)
			}
			keys[i] = string(buf)
		}
		return nil
	})
	seen := map[string]bool{}
	w := 0
	for i, row := range p.rows {
		if seen[keys[i]] {
			continue
		}
		seen[keys[i]] = true
		p.rows[w] = row
		if p.extra != nil {
			p.extra[w] = p.extra[i]
		}
		w++
	}
	p.rows = p.rows[:w]
	if p.extra != nil {
		p.extra = p.extra[:w]
	}
}

// sort orders the rows in place by the bound ORDER BY keys; ties keep their
// input order.
func (p *projection) sort() {
	key := func(row int, k sortKey) Value {
		if k.out >= 0 {
			return p.rows[row][k.out]
		}
		return p.extra[row][k.slot]
	}
	idx := make([]int, len(p.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range p.keys {
			c, null := compareForOrder(key(idx[a], k), key(idx[b], k))
			if null || c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([][]Value, len(p.rows))
	for i, j := range idx {
		sorted[i] = p.rows[j]
	}
	p.rows = sorted
}

// compareForOrder compares with PostgreSQL null ordering: NULL is treated
// as larger than every value, so NULLs sort last ascending and first
// descending once the caller flips the sign for DESC. Returns null=true when
// both are NULL (or the values do not compare), which callers treat as a tie.
func compareForOrder(a, b Value) (int, bool) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, true
	case a.IsNull():
		return 1, false
	case b.IsNull():
		return -1, false
	}
	c, err := Compare(a, b)
	if err != nil {
		return 0, true
	}
	return c, false
}

func (s *Session) applyLimitOffset(st *SelectStmt, rows [][]Value) ([][]Value, error) {
	evalInt := func(e Expr, what string) (int, error) {
		v, err := e.Eval(&Env{sess: s})
		if err != nil {
			return 0, err
		}
		if v.Kind != KindInt || v.I < 0 {
			return 0, fmt.Errorf("%s must be a non-negative integer", what)
		}
		return int(v.I), nil
	}
	if st.Offset != nil {
		n, err := evalInt(st.Offset, "OFFSET")
		if err != nil {
			return nil, err
		}
		if n >= len(rows) {
			rows = nil
		} else {
			rows = rows[n:]
		}
	}
	if st.Limit != nil {
		n, err := evalInt(st.Limit, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	return rows, nil
}

// checkColumnPrivileges enforces PostgreSQL-style column grants: when a
// user's SELECT on a table is restricted to named columns, referencing any
// other column (or `*`) is a permission error.
func (s *Session) checkColumnPrivileges(st *SelectStmt) error {
	g := s.engine.grants
	type restricted struct {
		alias   string
		table   string
		allowed map[string]bool
	}
	var rs []restricted
	for _, ref := range st.From {
		allowed := g.AllowedColumns(s.user, ActionSelect, ref.Table)
		if allowed == nil {
			continue
		}
		alias := strings.ToLower(ref.Alias)
		if alias == "" {
			alias = strings.ToLower(ref.Table)
		}
		rs = append(rs, restricted{alias: alias, table: ref.Table, allowed: allowed})
	}
	if len(rs) == 0 {
		return nil
	}
	for _, it := range st.Items {
		if it.Star {
			for _, r := range rs {
				if it.Table == "" || strings.EqualFold(it.Table, r.alias) {
					return &PermissionError{User: s.user, Action: ActionSelect,
						Object: r.table + ".*"}
				}
			}
		}
	}
	var bad error
	checkRef := func(e Expr) {
		walkExpr(e, func(x Expr) {
			cr, ok := x.(*ColumnRef)
			if !ok || bad != nil {
				return
			}
			for _, r := range rs {
				if cr.Table != "" && !strings.EqualFold(cr.Table, r.alias) {
					continue
				}
				// An unqualified ref may belong to another table; only
				// reject when this restricted table has the column.
				if t, ok := s.engine.Table(r.table); ok && t.ColIndex(cr.Name) < 0 {
					continue
				}
				if !r.allowed[strings.ToLower(cr.Name)] {
					bad = &PermissionError{User: s.user, Action: ActionSelect,
						Object: r.table + "." + cr.Name}
				}
			}
		})
	}
	for _, it := range st.Items {
		checkRef(it.Expr)
	}
	checkRef(st.Where)
	checkRef(st.Having)
	for _, k := range st.OrderBy {
		checkRef(k.Expr)
	}
	for _, ge := range st.GroupBy {
		checkRef(ge)
	}
	return bad
}
