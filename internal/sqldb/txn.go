package sqldb

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// undoKind identifies the inverse operation recorded in the undo log.
type undoKind uint8

const (
	undoInsert     undoKind = iota // row was inserted -> unlink its only version
	undoDelete                     // head version was delete-stamped -> clear the stamp
	undoUpdate                     // new version was installed -> pop it, unstamp the old head
	undoCreate                     // table was created -> drop it
	undoDrop                       // table was dropped -> restore it
	undoIndex                      // index was created -> remove it
	undoCreateView                 // view was created -> drop it
	undoDropView                   // view was dropped -> restore it
)

type undoOp struct {
	kind  undoKind
	table *Table
	entry *rowEntry
	// ver is the version the operation touched: the created version for
	// undoInsert/undoUpdate (its prev is the superseded head), the
	// delete-stamped version for undoDelete. Commit stamps these with the
	// commit timestamp; rollback reverses them.
	ver *rowVersion
	// for undoDrop: the catalog position so ordering is restored
	tablePos int
	indexCol string
	view     *View
}

// Txn is an open transaction: an undo log replayed in reverse on rollback,
// the redo records appended to the WAL on commit, and the MVCC identity its
// row versions carry while uncommitted.
//
// ACID notes for this single-node engine: atomicity and consistency come
// from the undo log plus statement-level rollback. Isolation is SNAPSHOT
// ISOLATION over per-row version chains: BEGIN fixes a read snapshot (each
// auto-commit statement gets its own), every read path resolves rows
// through snapshot visibility, and writers install new versions instead of
// mutating in place — so readers never block behind writers and never see
// uncommitted or later-committed data (no dirty or non-repeatable reads).
// Write-write conflicts are detected first-committer-wins: a transaction
// that tries to write a row with a newer concurrent version (committed
// after its snapshot, or still uncommitted) aborts with a retryable
// SerializationError; the caller should ROLLBACK and retry (see
// IsRetryable). BEGIN ISOLATION LEVEL READ COMMITTED instead refreshes the
// snapshot per statement. Durability depends on how the engine was opened:
// NewEngine is in-memory (process-lifetime); OpenEngine appends every
// committed transaction — prefixed with a commit-timestamp record so replay
// reconstructs visibility order — to a CRC-framed write-ahead log before
// acknowledging it, at one of three levels (SyncMode): "always" fsyncs per
// commit, "batch" group-commits, and "off" leaves flushing to the OS.
// Checkpointed snapshots (which serialize only committed-visible versions,
// so they are safe even while transactions are open) bound replay time, and
// open-time recovery replays the WAL tail, truncating any torn frame from a
// crash mid-write.
type Txn struct {
	undo []undoOp
	// redo holds the transaction's redo operations in execution order. Only
	// populated on durable engines; discarded on rollback. Row images are
	// captured at commit time, not statement time (see encodeRedo).
	redo []redoRec
	// snapTS is the read snapshot: the engine commit clock at BEGIN (or at
	// each statement under READ COMMITTED, tracked per statement).
	snapTS uint64
	level  IsolationLevel
	// aborted is set when a statement fails with a serialization conflict:
	// the transaction's snapshot is stale and must be retried, so further
	// statements are refused until ROLLBACK (or COMMIT, which rolls back).
	aborted bool
}

// redoRec is one buffered redo operation. Insert/update records keep the
// table and row entry and serialize the row image when the transaction
// commits: the transaction itself may update the row again (or ALTER/RENAME
// the table) before committing, and the WAL must record what actually
// became durable — the commit-time state.
type redoRec struct {
	kind  byte
	table *Table    // insert/update/delete (name + epoch read at encode time)
	entry *rowEntry // insert/update
	rowID int64     // delete
	sql   string    // DDL
	epoch uint64    // DDL: the created table's epoch (0 otherwise)
}

// encodeRedo serializes buffered redo records into WAL frames at commit
// time, after the commit timestamp has been stamped; the caller holds the
// engine write lock, so row images and table names are stable. The frame is
// prefixed with a commit-timestamp record so replay can reconstruct version
// visibility in commit order. Insert/update records whose row the SAME
// transaction also deleted are dropped (the head carries a committed xmax):
// the row's final state is "gone" and this transaction's own delete record
// says so. No other transaction can have deleted it — that write-write
// conflict would have aborted one of the two — which is what dissolved the
// old deadDurable tombstone bookkeeping into plain version visibility.
func encodeRedo(recs []redoRec, commitTS uint64) [][]byte {
	out := make([][]byte, 0, len(recs)+1)
	out = append(out, encodeCommitRec(commitTS))
	for _, r := range recs {
		switch r.kind {
		case recInsert:
			if r.entry.v != nil && r.entry.v.xmax == 0 {
				out = append(out, encodeInsertRec(r.table.Name, r.table.epoch, r.entry.id, r.entry.v.vals))
			}
		case recUpdate:
			if r.entry.v != nil && r.entry.v.xmax == 0 {
				out = append(out, encodeUpdateRec(r.table.Name, r.table.epoch, r.entry.id, r.entry.v.vals))
			}
		case recDelete:
			out = append(out, encodeDeleteRec(r.table.Name, r.table.epoch, r.rowID))
		case recDDL:
			out = append(out, encodeDDLRec(r.sql, r.epoch))
		}
	}
	if len(out) == 1 {
		return nil // nothing but the timestamp: log no frame
	}
	return out
}

func (tx *Txn) record(op undoOp) { tx.undo = append(tx.undo, op) }

// commitOps stamps every row version this undo log touched with the commit
// timestamp, converting uncommitted txn-pointer marks into committed
// visibility. The caller holds the engine write lock. Returns the set of
// tables touched (vacuum candidates).
func commitOps(undo []undoOp, ts uint64) map[*Table]bool {
	touched := map[*Table]bool{}
	for _, op := range undo {
		switch op.kind {
		case undoInsert:
			op.ver.xmin = ts
			op.ver.xminTxn = nil
			touched[op.table] = true
		case undoUpdate:
			op.ver.xmin = ts
			op.ver.xminTxn = nil
			op.ver.prev.xmax = ts
			op.ver.prev.xmaxTxn = nil
			op.table.garbage++
			touched[op.table] = true
		case undoDelete:
			op.ver.xmax = ts
			op.ver.xmaxTxn = nil
			if op.entry.v == op.ver {
				op.table.deadCnt++
			}
			op.table.garbage++
			touched[op.table] = true
		}
	}
	return touched
}

// rollback applies the undo log in reverse order against the engine. The
// caller holds the engine write lock.
func (tx *Txn) rollback(e *Engine) {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		op := tx.undo[i]
		switch op.kind {
		case undoInsert:
			op.table.undoInsertEntry(op.entry)
		case undoDelete:
			op.table.undoDeleteVersion(op.ver)
		case undoUpdate:
			op.table.undoInstallVersion(op.entry, op.ver)
		case undoCreate:
			lo := lowerName(op.table.Name)
			delete(e.tables, lo)
			for j, n := range e.tableOrder {
				if n == lo {
					e.tableOrder = append(e.tableOrder[:j], e.tableOrder[j+1:]...)
					break
				}
			}
			e.bumpCatalog()
		case undoDrop:
			lo := lowerName(op.table.Name)
			e.tables[lo] = op.table
			pos := op.tablePos
			if pos < 0 || pos > len(e.tableOrder) {
				pos = len(e.tableOrder)
			}
			e.tableOrder = append(e.tableOrder[:pos],
				append([]string{lo}, e.tableOrder[pos:]...)...)
			e.bumpCatalog()
		case undoIndex:
			delete(op.table.indexes, op.indexCol)
			e.bumpCatalog()
		case undoCreateView:
			_, _ = e.dropView(op.view.Name)
		case undoDropView:
			_ = e.createView(op.view)
		}
	}
	tx.undo = nil
}

// Session is one connection: a user identity plus optional open
// transaction. Like a database connection, a session serializes its own
// statements (mu) — callers sharing one session get correct, serialized
// execution; parallelism comes from opening more sessions.
type Session struct {
	engine *Engine
	user   string
	mu     sync.Mutex
	txn    *Txn
	// stmtUndo accumulates undo ops for the statement being executed, so a
	// mid-statement failure (e.g. a constraint violation on the third row
	// of a multi-row INSERT) rolls back just that statement. Outside an
	// explicit transaction it doubles as the auto-commit transaction
	// identity row versions carry until endStmt stamps them.
	stmtUndo *Txn
	// curView is the statement's read snapshot, established when the
	// statement takes its locks (the transaction's snapshot under snapshot
	// isolation, a fresh one per statement otherwise).
	curView snapView
	// forceSeqScan makes the planner skip every access-path upgrade and
	// sort/limit pushdown for this session, the engine's equivalent of
	// PostgreSQL's enable_indexscan=off. Access-path equivalence tests
	// compare optimized plans against this forced baseline. A forced
	// session is excluded from the shared plan cache in both directions
	// (see Session.Exec and prepare).
	forceSeqScan bool
	// grantTok parks the WAL durability claim of a GRANT/REVOKE statement
	// (see Engine.logGrantsBatched): execGrant/execRevoke run under the
	// engine write lock, so they stash the token here and execStmtLocked
	// joins it into the statement token, which the executor waits on after
	// every lock is released.
	grantTok *syncToken
	// analyze, when non-nil, is the per-operator collector for the EXPLAIN
	// ANALYZE statement currently executing on this session (see analyze.go).
	// Guarded by mu like the rest of the statement state.
	analyze *analyzeState
	// retryStreak counts consecutive retryable failures (write conflicts,
	// degraded refusals) on this session; the first success drains it into
	// the slow-query entry's retry count. Atomic so noteStmtDone can touch
	// it without s.mu.
	retryStreak atomic.Int64
}

// NewSession opens a session for user.
func (e *Engine) NewSession(user string) *Session {
	return &Session{engine: e, user: user}
}

// User returns the session's user name.
func (s *Session) User() string { return s.user }

// Engine returns the engine the session is bound to.
func (s *Session) Engine() *Engine { return s.engine }

// InTransaction reports whether a transaction is open.
func (s *Session) InTransaction() bool { return s.txn != nil }

// writerTxn returns the transaction identity the session's writes carry:
// the open transaction, or the statement scope for auto-commit statements.
func (s *Session) writerTxn() *Txn {
	if s.txn != nil {
		return s.txn
	}
	return s.stmtUndo
}

// stmtView computes the statement's read snapshot: the transaction's fixed
// snapshot under snapshot isolation, otherwise (READ COMMITTED or
// auto-commit) the commit clock now.
func (s *Session) stmtView() snapView {
	if s.txn != nil && s.txn.level == LevelSnapshot {
		return snapView{ts: s.txn.snapTS, txn: s.txn}
	}
	return snapView{ts: s.engine.lastCommitTS.Load(), txn: s.txn}
}

// Begin starts a transaction at the default snapshot isolation level. Like
// Commit and Rollback it serializes against other writers itself; the SQL
// path (BEGIN through Exec) uses the unexported variants under the writer
// lock the executor already holds.
func (s *Session) Begin() error { return s.BeginLevel(LevelSnapshot) }

// BeginLevel starts a transaction at the given isolation level.
func (s *Session) BeginLevel(level IsolationLevel) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock := s.engine.locks.lockAll()
	defer unlock()
	return s.begin(level)
}

func (s *Session) begin(level IsolationLevel) error {
	if s.txn != nil {
		return fmt.Errorf("a transaction is already in progress")
	}
	s.txn = &Txn{snapTS: s.engine.lastCommitTS.Load(), level: level}
	// Register the snapshot so vacuum keeps every version it may read.
	s.engine.registerTxn(s.txn)
	return nil
}

// Commit makes the transaction's effects permanent and, on a durable
// engine, blocks until they are on disk (per the engine's SyncMode). The
// engine write lock is held only for the commit-stamping critical section —
// version timestamps, redo encoding, and the WAL enqueue — and released
// before the durability wait.
func (s *Session) Commit() error {
	s.mu.Lock()
	unlock := s.engine.locks.lockAll()
	tok, err := s.commitTx()
	unlock()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return tok.wait()
}

// commitTx applies the commit in memory and enqueues the transaction's redo
// records on the WAL, returning the durability token WITHOUT waiting on it.
// The executor waits after releasing every lock, so concurrent committers
// can share one group fsync instead of serializing on it. The caller holds
// the all-tables write lock; the engine lock is taken here for the stamping
// section.
func (s *Session) commitTx() (*syncToken, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("no transaction is in progress")
	}
	if s.txn.aborted {
		// PostgreSQL-style: COMMIT of an aborted transaction rolls back.
		tx := s.txn
		s.engine.mu.Lock()
		tx.rollback(s.engine)
		s.engine.mu.Unlock()
		s.txn = nil
		s.engine.unregisterTxn(tx)
		// Wrapped with ErrWriteConflict so IsRetryable-driven retry loops
		// treat the failed COMMIT like the conflict that caused it.
		return nil, fmt.Errorf("transaction was aborted by a write conflict and has been rolled back; retry it: %w", ErrWriteConflict)
	}
	tx := s.txn
	e := s.engine
	if len(tx.undo) > 0 || len(tx.redo) > 0 {
		// The engine went read-only (durability I/O failure) while this
		// transaction was open: its writes can no longer be honestly made
		// durable, so COMMIT rolls them back and reports the degraded state.
		// A read-only transaction commits fine.
		if derr := e.checkWritable(); derr != nil {
			e.mu.Lock()
			tx.rollback(e)
			e.mu.Unlock()
			s.txn = nil
			e.unregisterTxn(tx)
			return nil, fmt.Errorf("transaction rolled back: %w", derr)
		}
	}
	// Deregister first so the GC horizon no longer includes our own
	// snapshot when vacuum runs below.
	e.unregisterTxn(tx)
	e.mu.Lock()
	tok := e.commitLocked(tx.undo, tx.redo)
	e.mu.Unlock()
	s.txn = nil
	return tok, nil
}

// commitLocked is the one commit-stamping critical section, shared by
// explicit COMMIT and auto-commit statements; the caller holds the engine
// write lock. It allocates the commit timestamp, stamps every touched
// version, enqueues the redo frame, and only then advances the clock — a
// snapshot taken at ts sees all of the transaction or none of it — before
// vacuuming the touched tables.
func (e *Engine) commitLocked(undo []undoOp, redo []redoRec) *syncToken {
	ts := e.lastCommitTS.Load() + 1
	touched := commitOps(undo, ts)
	var tok *syncToken
	if w := e.wal.Load(); w != nil && len(redo) > 0 {
		if frames := encodeRedo(redo, ts); len(frames) > 0 {
			tok = w.commit(frames)
		}
	}
	e.lastCommitTS.Store(ts)
	e.vacuumTouched(touched)
	return tok
}

// vacuumTouched garbage-collects superseded versions in the given tables
// when enough have accumulated. The caller holds the engine write lock.
func (e *Engine) vacuumTouched(touched map[*Table]bool) {
	horizon := e.gcHorizon()
	for t := range touched {
		if t.garbage == 0 {
			continue
		}
		// Vacuum is O(rows); amortize it against the garbage produced.
		if t.garbage >= 1024 || t.garbage*4 >= len(t.rows) {
			t.vacuum(horizon)
		}
	}
}

// Rollback reverts every change made inside the transaction.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock := s.engine.locks.lockAll()
	defer unlock()
	return s.rollbackTx()
}

func (s *Session) rollbackTx() error {
	if s.txn == nil {
		return fmt.Errorf("no transaction is in progress")
	}
	tx := s.txn
	s.engine.mu.Lock()
	tx.rollback(s.engine)
	s.engine.mu.Unlock()
	s.txn = nil
	s.engine.unregisterTxn(tx)
	return nil
}

// record routes an undo entry to the statement-level log.
func (s *Session) record(op undoOp) {
	if s.stmtUndo != nil {
		s.stmtUndo.record(op)
	}
}

// durable reports whether mutations must produce redo records.
func (s *Session) durable() bool { return s.engine.wal.Load() != nil }

// redoAppend buffers a redo operation in the statement scope; serialization
// to WAL bytes happens at commit (see redoRec/encodeRedo).
func (s *Session) redoAppend(rec redoRec) {
	if s.stmtUndo != nil && s.durable() {
		s.stmtUndo.redo = append(s.stmtUndo.redo, rec)
	}
}

func (s *Session) redoInsert(t *Table, e *rowEntry) {
	s.redoAppend(redoRec{kind: recInsert, table: t, entry: e})
}

func (s *Session) redoUpdate(t *Table, e *rowEntry) {
	s.redoAppend(redoRec{kind: recUpdate, table: t, entry: e})
}

func (s *Session) redoDelete(t *Table, e *rowEntry) {
	s.redoAppend(redoRec{kind: recDelete, table: t, rowID: e.id})
}

// redoDDL logs a DDL statement as replayable SQL text. The text is rendered
// at execution time; DDL cannot be deferred to commit because its catalog
// effects (unlike dirty rows) are what later records in the same log depend
// on.
func (s *Session) redoDDL(sql string) {
	s.redoAppend(redoRec{kind: recDDL, sql: sql})
}

// redoCreateTable is redoDDL for CREATE TABLE: the record also carries the
// epoch this incarnation was assigned, so replay re-creates it under the
// same epoch and later row records pin to the right incarnation.
func (s *Session) redoCreateTable(t *Table) {
	s.redoAppend(redoRec{kind: recDDL, sql: SchemaSQL(t), epoch: t.epoch})
}

// beginStmt opens the statement-level undo/redo scope.
func (s *Session) beginStmt() { s.stmtUndo = &Txn{} }

// endStmt closes the statement scope: on error the statement is rolled
// back; on success its undo ops are promoted to the open transaction or
// committed in place (auto-commit: stamp with a fresh commit timestamp and
// enqueue the redo frame, exactly like commitTx). The returned token, if
// any, is the auto-commit's claim on WAL durability — the executor waits on
// it after every lock is released. engineLocked tells endStmt whether the
// caller (a DDL statement) already holds the engine write lock; DML callers
// do not, so the commit critical section takes it here.
func (s *Session) endStmt(execErr error, engineLocked bool) *syncToken {
	st := s.stmtUndo
	s.stmtUndo = nil
	if st == nil {
		return nil
	}
	if len(st.undo) == 0 && len(st.redo) == 0 {
		// Read-only statement (or a write that matched nothing): nothing to
		// roll back, promote, or commit — and the fast path keeps readers,
		// who hold only the engine read lock, away from the write lock.
		return nil
	}
	e := s.engine
	lock := func() {
		if !engineLocked {
			e.mu.Lock()
		}
	}
	unlock := func() {
		if !engineLocked {
			e.mu.Unlock()
		}
	}
	if execErr != nil {
		lock()
		st.rollback(e)
		unlock()
		return nil
	}
	if s.txn != nil {
		// Re-stamp the statement's versions with the durable transaction
		// identity: they were created under it already (writerTxn), so only
		// the undo/redo logs move.
		s.txn.undo = append(s.txn.undo, st.undo...)
		s.txn.redo = append(s.txn.redo, st.redo...)
		return nil
	}
	// Auto-commit: the same stamping protocol as an explicit COMMIT.
	lock()
	tok := e.commitLocked(st.undo, st.redo)
	unlock()
	return tok
}

func lowerName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
