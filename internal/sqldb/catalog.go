package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/sqldb/vfs"
)

// Column describes one table column.
type Column struct {
	Name       string
	Type       Kind
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr // nil when absent
}

// ForeignKey is a FOREIGN KEY constraint on a table.
type ForeignKey struct {
	Columns       []string
	ParentTable   string
	ParentColumns []string
}

// rowVersion is one incarnation of a row's values in its version chain.
// While the creating (or deleting) transaction is open, xminTxn (xmaxTxn)
// identifies it; commit replaces the pointer with the commit timestamp,
// rollback unlinks the version (or clears the delete stamp). xmin 0 with a
// nil xminTxn means "committed before any live snapshot" (snapshot-loaded
// rows). xmax 0 with a nil xmaxTxn means the version is the live head.
type rowVersion struct {
	vals    []Value
	xmin    uint64 // commit timestamp of the creating transaction
	xmax    uint64 // commit timestamp of the deleting/superseding transaction
	xminTxn *Txn   // creating transaction while still open
	xmaxTxn *Txn   // deleting/superseding transaction while still open
	prev    *rowVersion
}

// rowEntry is one stored row: a stable id plus its version chain, newest
// first. Index and primary-key entries point at the chain (the id), so an
// old snapshot can still find a row through a value only an old version
// holds; scans re-check the visible version's value. v is nil once a
// rolled-back insert is unlinked (vacuum reclaims the husk).
type rowEntry struct {
	id int64
	v  *rowVersion
}

// rowHit is one row an index or range lookup resolved for a snapshot: the
// entry (write paths mutate it) and the version the snapshot sees (read
// paths materialize its values).
type rowHit struct {
	e *rowEntry
	v *rowVersion
}

// Index is a single-column index with two faces: a hash map serving
// equality lookups in O(1), and a sorted slice of the distinct non-NULL
// values serving range scans and ordered iteration. Buckets hold the ids of
// every row whose version CHAIN contains the value — possibly more rows
// than any one snapshot sees — so lookups re-check the visible version's
// value. Entries are added when a version installs a value and removed only
// when no version in the chain holds it (rollback or vacuum).
type Index struct {
	Name   string
	Column string
	Unique bool
	col    int                // column position
	m      map[string][]int64 // value key -> row ids whose chain holds it
	ord    []Value            // distinct non-NULL values, sorted by orderCompare
}

// Table is an in-memory heap of row chains plus secondary structures.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey

	// epoch identifies this incarnation of the table: assigned by
	// createTable from an engine-wide counter, preserved by snapshots and
	// WAL replay. Redo records carry it so replay can tell DML aimed at a
	// dropped-and-recreated table of the same name from DML aimed at the
	// current one (see the WAL record-type comment in wal.go).
	epoch uint64

	rows   []*rowEntry
	byID   map[int64]*rowEntry
	nextID int64
	// deadCnt counts entries whose head version is committed-dead (the
	// row-count estimate subtracts them); garbage counts versions awaiting
	// vacuum (superseded, committed-dead, or aborted) and gates it.
	deadCnt int
	garbage int

	indexes map[string]*Index  // keyed by lower-case column name
	pkCols  []int              // resolved PK column positions
	pkMap   map[string][]int64 // composite PK key -> row ids whose chain holds it
	pkOrd   []Value            // single-column PK values, sorted (nil otherwise)
}

func newTable(name string, cols []Column, pk []string, fks []ForeignKey) (*Table, error) {
	t := &Table{
		Name:        name,
		Columns:     cols,
		PrimaryKey:  pk,
		ForeignKeys: fks,
		byID:        map[int64]*rowEntry{},
		indexes:     map[string]*Index{},
	}
	seen := map[string]bool{}
	for _, c := range cols {
		lo := strings.ToLower(c.Name)
		if seen[lo] {
			return nil, fmt.Errorf("duplicate column %q in table %q", c.Name, name)
		}
		seen[lo] = true
	}
	for _, pc := range pk {
		i := t.ColIndex(pc)
		if i < 0 {
			return nil, fmt.Errorf("primary key column %q not found in table %q", pc, name)
		}
		t.pkCols = append(t.pkCols, i)
	}
	if len(t.pkCols) > 0 {
		t.pkMap = map[string][]int64{}
	}
	// Auto-index UNIQUE columns.
	for _, c := range cols {
		if c.Unique && !c.PrimaryKey {
			t.addIndex(&Index{Name: name + "_" + c.Name + "_key", Column: c.Name, Unique: true})
		}
	}
	return t, nil
}

// ColIndex returns the position of a column by case-insensitive name, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames lists the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// RowCount estimates the number of rows the latest committed state holds:
// entries minus committed-dead heads. Uncommitted inserts count until their
// fate is decided; exact counts come from a snapshot-visible scan.
func (t *Table) RowCount() int { return len(t.rows) - t.deadCnt }

// visibleRows iterates, in insertion order, over the rows sn can see,
// passing each entry and its visible version.
func (t *Table) visibleRows(sn snapView, fn func(*rowEntry, *rowVersion) error) error {
	for _, e := range t.rows {
		v := e.visible(sn)
		if v == nil {
			continue
		}
		if err := fn(e, v); err != nil {
			return err
		}
	}
	return nil
}

// addIndex builds both faces over the existing rows — every version of
// every chain, since index entries point at chains. The ordered face is
// bulk-built (hash the rows, then one sort over the distinct values) rather
// than per-row sorted inserts, which would cost O(n^2) memmove on a
// populated table.
func (t *Table) addIndex(ix *Index) {
	ix.col = t.ColIndex(ix.Column)
	ix.m = map[string][]int64{}
	distinct := map[string]Value{}
	for _, e := range t.rows {
		for v := e.v; v != nil; v = v.prev {
			cv := v.vals[ix.col]
			key := cv.Key()
			ids, added := addID(ix.m[key], e.id)
			if !added {
				continue
			}
			ix.m[key] = ids
			if !cv.IsNull() {
				distinct[key] = cv
			}
		}
	}
	ix.ord = make([]Value, 0, len(distinct))
	for _, v := range distinct {
		ix.ord = append(ix.ord, v)
	}
	sort.Slice(ix.ord, func(i, j int) bool { return orderCompare(ix.ord[i], ix.ord[j]) < 0 })
	t.indexes[strings.ToLower(ix.Column)] = ix
}

// addID appends id to a bucket unless already present (a chain may hold the
// same value in several versions; the bucket records the row once).
func addID(ids []int64, id int64) ([]int64, bool) {
	for _, got := range ids {
		if got == id {
			return ids, false
		}
	}
	return append(ids, id), true
}

// removeID deletes id from a bucket (swap-delete); no-op when absent.
func removeID(ids []int64, id int64) ([]int64, bool) {
	for i, got := range ids {
		if got == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1], true
		}
	}
	return ids, false
}

// ordSearch returns the position of v in ord, or the insertion point that
// keeps ord sorted. Within one (coerced) column, orderCompare(a, b) == 0
// implies a.Key() == b.Key(), so the position is unique.
func ordSearch(ord []Value, v Value) int {
	return sort.Search(len(ord), func(i int) bool { return orderCompare(ord[i], v) >= 0 })
}

// ordInsert adds v to the sorted slice if not already present.
func ordInsert(ord []Value, v Value) []Value {
	i := ordSearch(ord, v)
	if i < len(ord) && orderCompare(ord[i], v) == 0 {
		return ord
	}
	ord = append(ord, Value{})
	copy(ord[i+1:], ord[i:])
	ord[i] = v
	return ord
}

// ordDelete removes v from the sorted slice if present.
func ordDelete(ord []Value, v Value) []Value {
	i := ordSearch(ord, v)
	if i < len(ord) && orderCompare(ord[i], v) == 0 {
		return append(ord[:i], ord[i+1:]...)
	}
	return ord
}

func (ix *Index) add(v Value, id int64) {
	key := v.Key()
	ids, added := addID(ix.m[key], id)
	if !added {
		return
	}
	if len(ids) == 1 && !v.IsNull() {
		ix.ord = ordInsert(ix.ord, v)
	}
	ix.m[key] = ids
}

func (ix *Index) remove(v Value, id int64) {
	key := v.Key()
	ids, removed := removeID(ix.m[key], id)
	if !removed {
		return
	}
	if len(ids) == 0 {
		delete(ix.m, key)
		if !v.IsNull() {
			ix.ord = ordDelete(ix.ord, v)
		}
		return
	}
	ix.m[key] = ids
}

func (t *Table) pkKey(vals []Value) string {
	var sb strings.Builder
	for _, i := range t.pkCols {
		writeKeySegment(&sb, vals[i])
	}
	return sb.String()
}

// --- version-chain mutation primitives ---
//
// The write path calls these under the engine write lock (short critical
// sections); readers hold the read lock for their whole statement, so they
// never observe a half-installed version or index entry.

// insertEntry appends a new row whose first version belongs to txn. The
// caller has already passed constraint checks.
func (t *Table) insertEntry(vals []Value, txn *Txn) *rowEntry {
	t.nextID++
	e := &rowEntry{id: t.nextID, v: &rowVersion{vals: vals, xminTxn: txn}}
	t.rows = append(t.rows, e)
	t.byID[e.id] = e
	t.indexVals(e, vals)
	return e
}

// installVersion pushes a new version created by txn on top of e's chain,
// stamping the old head as superseded by txn. Returns the new version.
func (t *Table) installVersion(e *rowEntry, vals []Value, txn *Txn) *rowVersion {
	old := e.v
	old.xmaxTxn = txn
	e.v = &rowVersion{vals: vals, xminTxn: txn, prev: old}
	t.indexVals(e, vals)
	return e.v
}

// deleteVersion stamps e's head as deleted by txn. The index keeps its
// entries: the chain still holds the values, and older snapshots still see
// the row.
func (t *Table) deleteVersion(e *rowEntry, txn *Txn) *rowVersion {
	e.v.xmaxTxn = txn
	return e.v
}

// undoInsertEntry rolls back an insert: the chain had exactly this one
// version, so the entry becomes a husk (v == nil) that vacuum reclaims.
func (t *Table) undoInsertEntry(e *rowEntry) {
	vals := e.v.vals
	e.v = nil
	t.unindexVals(e, vals)
	delete(t.byID, e.id)
	t.garbage++
}

// undoInstallVersion rolls back an update: pop ver (the rolled-back new
// version) off the chain and clear the supersede stamp on the old head.
func (t *Table) undoInstallVersion(e *rowEntry, ver *rowVersion) {
	e.v = ver.prev
	e.v.xmaxTxn = nil
	t.unindexVals(e, ver.vals)
}

// undoDeleteVersion rolls back a delete: clear the stamp.
func (t *Table) undoDeleteVersion(ver *rowVersion) { ver.xmaxTxn = nil }

// indexVals registers a version's values: each indexed column's bucket and
// the PK bucket gain e's id unless the chain already put it there.
func (t *Table) indexVals(e *rowEntry, vals []Value) {
	if t.pkMap != nil {
		k := t.pkKey(vals)
		ids, added := addID(t.pkMap[k], e.id)
		if added {
			t.pkMap[k] = ids
			if len(ids) == 1 && len(t.pkCols) == 1 {
				t.pkOrd = ordInsert(t.pkOrd, vals[t.pkCols[0]])
			}
		}
	}
	for _, ix := range t.indexes {
		ix.add(vals[ix.col], e.id)
	}
}

// unindexVals removes index/PK entries for vals unless another version
// still in e's chain holds the same value (then the entry must stay).
func (t *Table) unindexVals(e *rowEntry, vals []Value) {
	if t.pkMap != nil {
		k := t.pkKey(vals)
		if !t.chainHasPK(e, k) {
			t.removePK(k, e.id, vals)
		}
	}
	for _, ix := range t.indexes {
		cv := vals[ix.col]
		if !chainHasKey(e, ix.col, cv.Key()) {
			ix.remove(cv, e.id)
		}
	}
}

// removePK drops id from a PK bucket, maintaining the ordered face for
// single-column keys. Idempotent: a no-op when the id is absent.
func (t *Table) removePK(k string, id int64, vals []Value) {
	ids, removed := removeID(t.pkMap[k], id)
	if !removed {
		return
	}
	if len(ids) == 0 {
		delete(t.pkMap, k)
		if len(t.pkCols) == 1 {
			t.pkOrd = ordDelete(t.pkOrd, vals[t.pkCols[0]])
		}
		return
	}
	t.pkMap[k] = ids
}

// chainHasPK reports whether any version in e's chain renders PK key k.
func (t *Table) chainHasPK(e *rowEntry, k string) bool {
	for v := e.v; v != nil; v = v.prev {
		if t.pkKey(v.vals) == k {
			return true
		}
	}
	return false
}

// chainHasKey reports whether any version in e's chain holds key k in col.
func chainHasKey(e *rowEntry, col int, k string) bool {
	for v := e.v; v != nil; v = v.prev {
		if v.vals[col].Key() == k {
			return true
		}
	}
	return false
}

// rebuildPK bulk-builds the primary-key buckets and (for single-column
// keys) the ordered face over the existing chains: hash every version, then
// one sort — the same shape as addIndex, used by the snapshot loader
// instead of per-row sorted inserts.
func (t *Table) rebuildPK() {
	if t.pkMap == nil {
		return
	}
	t.pkMap = make(map[string][]int64, len(t.rows))
	single := len(t.pkCols) == 1
	var ord []Value
	if single {
		ord = make([]Value, 0, len(t.rows))
	}
	for _, e := range t.rows {
		for v := e.v; v != nil; v = v.prev {
			k := t.pkKey(v.vals)
			ids, added := addID(t.pkMap[k], e.id)
			if !added {
				continue
			}
			t.pkMap[k] = ids
			if single && len(ids) == 1 {
				ord = append(ord, v.vals[t.pkCols[0]])
			}
		}
	}
	if single {
		sort.Slice(ord, func(i, j int) bool { return orderCompare(ord[i], ord[j]) < 0 })
		t.pkOrd = ord
	}
}

// lookupEq returns ids of rows whose chain may hold v in col, using an
// index bucket or the PK buckets, or usable=false when no access path
// exists (caller falls back to a scan). Callers resolve each id against
// their snapshot and re-check the visible version's value: buckets cover
// chains, not any one snapshot.
func (t *Table) lookupEq(col int, v Value) ([]int64, bool) {
	if len(t.pkCols) == 1 && t.pkCols[0] == col {
		var sb strings.Builder
		writeKeySegment(&sb, v)
		return t.pkMap[sb.String()], true
	}
	if ix, ok := t.indexes[strings.ToLower(t.Columns[col].Name)]; ok {
		return ix.m[v.Key()], true
	}
	return nil, false
}

// orderedOn returns the sorted distinct values of column col plus a lookup
// from value to row ids (NULL included), via the single-column primary key
// or an ordered secondary index. ok is false when no ordered structure
// covers the column (caller falls back to scan+sort).
func (t *Table) orderedOn(col int) (ord []Value, idsFor func(Value) []int64, ok bool) {
	// Buckets are swap-deleted, so restore insertion (id) order — but only
	// when there is anything to order: PK buckets are almost always length
	// 0 or 1 (longer only transiently, a dead chain beside a reinserted
	// key awaiting vacuum), and the copy+sort per visited value would
	// otherwise tax every ordered scan's hot path. Callers only read the
	// returned slice.
	sortedBucket := func(ids []int64) []int64 {
		if len(ids) <= 1 {
			return ids
		}
		out := append([]int64{}, ids...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if len(t.pkCols) == 1 && t.pkCols[0] == col {
		idsFor = func(v Value) []int64 {
			var sb strings.Builder
			writeKeySegment(&sb, v)
			return sortedBucket(t.pkMap[sb.String()])
		}
		return t.pkOrd, idsFor, true
	}
	if ix, hit := t.indexes[strings.ToLower(t.Columns[col].Name)]; hit {
		idsFor = func(v Value) []int64 {
			return sortedBucket(ix.m[v.Key()])
		}
		return ix.ord, idsFor, true
	}
	return nil, nil, false
}

// lookupRange returns the rows sn sees whose column col falls within
// [lo, hi] (nil = unbounded, inclusivity per flag), in column order —
// reversed when desc. usable is false when no ordered structure covers the
// column. Each row is emitted at the position of its VISIBLE version's
// value (buckets cover whole chains, so a row is skipped under values only
// other versions hold — it surfaces under its own). withNulls additionally
// emits NULL rows at the position ORDER BY gives them (last ascending,
// first descending; only meaningful for unbounded scans serving a sort).
// maxRows > 0 stops emission early — the Top-K fast path — and 0 means
// unlimited.
func (t *Table) lookupRange(sn snapView, col int, lo, hi *Value, loIncl, hiIncl, desc, withNulls bool, maxRows int) ([]rowHit, bool) {
	ord, idsFor, ok := t.orderedOn(col)
	if !ok {
		return nil, false
	}
	start, end := 0, len(ord)
	if lo != nil {
		start = ordSearch(ord, *lo)
		if !loIncl && start < len(ord) && orderCompare(ord[start], *lo) == 0 {
			start++
		}
	}
	if hi != nil {
		end = ordSearch(ord, *hi)
		if hiIncl && end < len(ord) && orderCompare(ord[end], *hi) == 0 {
			end++
		}
	}
	if start > end {
		start = end
	}
	var out []rowHit
	full := maxRows <= 0
	emit := func(val Value, ids []int64) bool {
		key := val.Key()
		for _, id := range ids {
			e := t.byID[id]
			if e == nil {
				continue
			}
			v := e.visible(sn)
			if v == nil || v.vals[col].Key() != key {
				continue
			}
			out = append(out, rowHit{e: e, v: v})
			if !full && len(out) >= maxRows {
				return false
			}
		}
		return true
	}
	if desc && withNulls && !emit(Null(), idsFor(Null())) {
		return out, true
	}
	if desc {
		for i := end - 1; i >= start; i-- {
			if !emit(ord[i], idsFor(ord[i])) {
				return out, true
			}
		}
	} else {
		for i := start; i < end; i++ {
			if !emit(ord[i], idsFor(ord[i])) {
				return out, true
			}
		}
	}
	if !desc && withNulls {
		emit(Null(), idsFor(Null()))
	}
	return out, true
}

// Engine is a single logical database: a catalog of tables, the privilege
// store, and the execution entry points. An Engine corresponds to one
// PostgreSQL database in the paper's setup.
type Engine struct {
	Name string

	// mu guards the catalog and all row data. Read-only statements
	// (SELECT, EXPLAIN) take the read side for their whole statement so
	// independent sessions scan in parallel. DML writers do NOT hold the
	// write side across their statement: they serialize through the lock
	// manager and take mu only for short version-installation critical
	// sections, so readers never stall behind a long write statement. DDL,
	// grants, and rollback still take the write side for the whole
	// statement.
	mu sync.RWMutex
	// locks is the write-side lock manager: DML statements lock just the
	// tables they touch (in deterministic order), while DDL, grants, and
	// transaction control take the all-tables lock. Lock-manager locks are
	// always acquired before mu.
	locks lockManager
	// par configures batched/parallel query execution: worker count, the
	// row-count threshold, and the engine-shared worker slot pool.
	par        parallelConfig
	tables     map[string]*Table // lower-case name -> table
	tableOrder []string          // creation order of lower-case names
	views      map[string]*View  // lower-case name -> view
	viewOrder  []string
	grants     *Grants
	// epochCounter feeds Table.epoch (under mu, via createTable); replay
	// and snapshot load keep it ahead of every epoch they restore.
	epochCounter uint64

	// lastCommitTS is the engine's logical commit clock. A snapshot is the
	// clock value at BEGIN (or statement start); commit stamps its versions
	// with clock+1 and then advances the clock, both under mu, so a reader
	// whose snapshot covers a timestamp sees every version stamped with it.
	lastCommitTS atomic.Uint64
	// snapMu guards activeTxns: open transactions and their snapshot
	// timestamps, the GC horizon for version vacuuming.
	snapMu     sync.Mutex
	activeTxns map[*Txn]uint64

	// catalogVersion counts catalog mutations (DDL and grant changes). The
	// plan cache keys every entry to the version it was planned against, so
	// a bump invalidates all cached plans without touching the cache itself.
	// Atomic because grants can be mutated directly through Grants() without
	// the engine lock.
	catalogVersion atomic.Uint64
	plans          *planCache
	// ddl remembers rendered object definitions for one catalog version
	// (see ObjectDDL).
	ddl ddlMemo

	// dmlRowsVisited counts rows the write path inspected while matching
	// UPDATE/DELETE targets; the gap between an index path (bucket-sized)
	// and a full scan (table-sized) is asserted in tests and reported by
	// benchrunner.
	dmlRowsVisited atomic.Int64

	// scanRowsVisited is the read-side counterpart: rows the SELECT path
	// materialized from base tables (seq scans count the whole table, index
	// and range scans only their matching rows). Tests assert that a range
	// predicate on an ordered index visits only in-range rows.
	scanRowsVisited atomic.Int64

	// writeConflicts counts statements aborted by first-committer-wins
	// write-write conflict detection (retryable serialization failures).
	writeConflicts atomic.Int64

	// Durability (engines opened with OpenEngine; all nil/zero for
	// in-memory engines created with NewEngine). wal is atomic because the
	// grants logger reads it without the engine lock and Close swaps it out.
	wal      atomic.Pointer[wal]
	fs       vfs.FS
	dir      string
	lockFile vfs.Unlocker
	closed   atomic.Bool
	// degradedErr, once set, parks the engine in read-only degraded mode:
	// the durability stack hit an I/O error (see degraded.go) and writes can
	// no longer be honestly acknowledged. Atomic because it is set from the
	// WAL flusher goroutine and read on every write statement.
	degradedErr atomic.Pointer[DegradedError]
	// ckptErr is the most recent checkpoint failure (nil after a success);
	// background checkpoints park their error here (see noteCkptErr).
	ckptErr atomic.Pointer[error]
	// ckptMu serializes Checkpoint calls (manual, background, Close); the
	// last-checkpoint markers below are only touched under it.
	ckptMu          sync.Mutex
	lastCkptLSN     uint64
	lastCkptVersion uint64
	ckptQuit        chan struct{}
	ckptDone        chan struct{}
	// grantWALErr parks a failed WAL append for a privilege mutation (the
	// Grants store's mutators return no error); execGrant/execRevoke take
	// and surface it.
	grantWALErr atomic.Pointer[error]
	// grantSink, when set, collects privilege WAL records fired during a
	// GRANT/REVOKE statement so the whole statement commits as one frame
	// with one durability wait (see Engine.logGrantsBatched).
	grantSink atomic.Pointer[grantSink]

	// metrics holds the engine's latency histograms and hot-path counters
	// (see observe.go). All members are atomics; recording never takes a
	// lock and — enforced by the sqlvet lockorder analyzer — never happens
	// under the exclusive engine lock or inside the WAL I/O critical
	// section.
	metrics engineMetrics
	// slow is the ring-buffered slow-query log; statements at or over its
	// threshold are recorded with their user, duration, rows, retry count,
	// and rendered plan.
	slow *stats.SlowLog
}

// grantSink accumulates privilege WAL records for one statement. closed
// flips (under mu) once the owning statement has drained recs: a logger
// that loaded the sink pointer just before it was cleared must not append
// to a drained sink — the record would never reach the WAL — so on closed
// it falls back to the direct commit path instead.
type grantSink struct {
	mu     sync.Mutex
	recs   [][]byte
	closed bool
}

// logGrantsBatched runs fn (a sequence of Grants mutations) with the
// privilege logger redirected into a per-statement sink, then appends the
// collected records as a single WAL frame. The returned token is the
// statement's claim on that frame's durability — the caller parks it and
// the executor waits on it after every lock is released, so the fsync never
// happens under the engine write lock. Nil on in-memory engines.
func (e *Engine) logGrantsBatched(fn func()) *syncToken {
	sink := &grantSink{}
	e.grantSink.Store(sink)
	fn()
	e.grantSink.Store(nil)
	sink.mu.Lock()
	recs := sink.recs
	sink.closed = true
	sink.mu.Unlock()
	if w := e.wal.Load(); w != nil && len(recs) > 0 {
		return w.commit(recs)
	}
	return nil
}

// takeGrantWALErr returns and clears a parked privilege-logging error.
func (e *Engine) takeGrantWALErr() error {
	if p := e.grantWALErr.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// DurabilityStats reports the persistence subsystem's counters. For an
// in-memory engine only Durable=false and Mode="memory" are meaningful.
type DurabilityStats struct {
	Durable      bool   // true when the engine is backed by a WAL directory
	Dir          string // WAL/snapshot directory
	Mode         string // sync mode: off, batch, always (or "memory")
	Commits      int64  // transactions appended to the WAL
	Records      int64  // individual redo records appended
	Fsyncs       int64  // fsync calls issued
	GroupFlushes int64  // group-commit batches flushed (batch mode)
	WALBytes     int64  // total bytes appended since open
	WALSize      int64  // bytes in the active segment
	Segment      uint64 // active segment number
	LSN          uint64 // last committed log sequence number
	Checkpoints  int64  // snapshots written since open
}

// Durability returns the engine's persistence counters.
func (e *Engine) Durability() DurabilityStats {
	w := e.wal.Load()
	if w == nil {
		return DurabilityStats{Mode: "memory"}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return DurabilityStats{
		Durable:      true,
		Dir:          e.dir,
		Mode:         w.mode.String(),
		Commits:      w.commits,
		Records:      w.records,
		Fsyncs:       w.fsyncs,
		GroupFlushes: w.groupFlushes,
		WALBytes:     w.bytes,
		WALSize:      w.size + int64(len(w.pending)),
		Segment:      w.seg,
		LSN:          w.lsn,
		Checkpoints:  w.checkpoints,
	}
}

// View is a named stored query. The AST is shared by every scanning
// session; execution never mutates statement trees (see Env.sess), so no
// copies are needed.
type View struct {
	Name  string
	Query *SelectStmt
}

// NewEngine creates an empty database. The special user "root" is always a
// superuser.
func NewEngine(name string) *Engine {
	e := &Engine{
		Name:       name,
		tables:     map[string]*Table{},
		views:      map[string]*View{},
		plans:      newPlanCache(),
		activeTxns: map[*Txn]uint64{},
		slow:       stats.NewSlowLog(slowLogCap, defaultSlowThreshold),
	}
	// Grants share the catalog version counter so privilege changes made
	// directly through Grants() (fixtures, toolkits) also invalidate plans.
	e.grants = newGrants(&e.catalogVersion)
	return e
}

// bumpCatalog invalidates every cached plan by advancing the version.
func (e *Engine) bumpCatalog() { e.catalogVersion.Add(1) }

// CatalogVersion returns the current catalog version counter.
func (e *Engine) CatalogVersion() uint64 { return e.catalogVersion.Load() }

// PlanCacheStats reports the engine's statement-cache counters: hits served
// without re-parsing/planning, and misses (cold or invalidated lookups).
func (e *Engine) PlanCacheStats() (hits, misses int64) { return e.plans.stats() }

// PlanCacheSnapshot reports the full plan-cache counters, including LRU
// evictions and the number of currently cached plans.
func (e *Engine) PlanCacheSnapshot() stats.CacheStats { return e.plans.snapshot() }

// DMLRowsVisited returns the cumulative count of rows inspected while
// matching UPDATE/DELETE targets.
func (e *Engine) DMLRowsVisited() int64 { return e.dmlRowsVisited.Load() }

// ScanRowsVisited returns the cumulative count of base-table rows the
// SELECT path materialized (full table per seq scan, matching rows per
// index/range scan).
func (e *Engine) ScanRowsVisited() int64 { return e.scanRowsVisited.Load() }

// WriteConflicts returns the cumulative count of statements aborted with a
// retryable serialization error by write-write conflict detection.
func (e *Engine) WriteConflicts() int64 { return e.writeConflicts.Load() }

// Grants exposes the privilege store for direct configuration.
func (e *Engine) Grants() *Grants { return e.grants }

// Table returns a table by case-insensitive name.
func (e *Engine) Table(name string) (*Table, bool) {
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames lists tables in creation order.
func (e *Engine) TableNames() []string {
	out := make([]string, 0, len(e.tableOrder))
	for _, lo := range e.tableOrder {
		out = append(out, e.tables[lo].Name)
	}
	return out
}

// ViewByName returns a view by case-insensitive name.
func (e *Engine) ViewByName(name string) (*View, bool) {
	v, ok := e.views[strings.ToLower(name)]
	return v, ok
}

// ViewNames lists views in creation order.
func (e *Engine) ViewNames() []string {
	out := make([]string, 0, len(e.viewOrder))
	for _, lo := range e.viewOrder {
		out = append(out, e.views[lo].Name)
	}
	return out
}

func (e *Engine) createView(v *View) error {
	lo := strings.ToLower(v.Name)
	if _, exists := e.tables[lo]; exists {
		return fmt.Errorf("table %q already exists", v.Name)
	}
	if _, exists := e.views[lo]; exists {
		return fmt.Errorf("view %q already exists", v.Name)
	}
	e.views[lo] = v
	e.viewOrder = append(e.viewOrder, lo)
	e.bumpCatalog()
	return nil
}

func (e *Engine) dropView(name string) (*View, error) {
	lo := strings.ToLower(name)
	v, ok := e.views[lo]
	if !ok {
		return nil, &NotFoundError{Kind: "view", Name: name}
	}
	delete(e.views, lo)
	for i, n := range e.viewOrder {
		if n == lo {
			e.viewOrder = append(e.viewOrder[:i], e.viewOrder[i+1:]...)
			break
		}
	}
	e.bumpCatalog()
	return v, nil
}

// createTable registers a table in the catalog and assigns its epoch. A
// table arriving with a non-zero epoch (snapshot load, WAL replay) keeps it;
// either way the counter stays ahead so later incarnations never reuse one.
func (e *Engine) createTable(t *Table) error {
	lo := strings.ToLower(t.Name)
	if _, exists := e.tables[lo]; exists {
		return fmt.Errorf("table %q already exists", t.Name)
	}
	if _, exists := e.views[lo]; exists {
		return fmt.Errorf("view %q already exists", t.Name)
	}
	if t.epoch == 0 {
		e.epochCounter++
		t.epoch = e.epochCounter
	} else if t.epoch > e.epochCounter {
		e.epochCounter = t.epoch
	}
	e.tables[lo] = t
	e.tableOrder = append(e.tableOrder, lo)
	e.bumpCatalog()
	return nil
}

// dropTable removes a table from the catalog and returns it (for undo).
func (e *Engine) dropTable(name string) (*Table, error) {
	lo := strings.ToLower(name)
	t, ok := e.tables[lo]
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	// Refuse when another table references this one.
	for _, other := range e.tables {
		if strings.EqualFold(other.Name, name) {
			continue
		}
		for _, fk := range other.ForeignKeys {
			if strings.EqualFold(fk.ParentTable, name) {
				return nil, fmt.Errorf("cannot drop table %q: table %q references it", name, other.Name)
			}
		}
	}
	delete(e.tables, lo)
	for i, n := range e.tableOrder {
		if n == lo {
			e.tableOrder = append(e.tableOrder[:i], e.tableOrder[i+1:]...)
			break
		}
	}
	e.bumpCatalog()
	return t, nil
}

// childFKs lists (table, fk) pairs that reference parent.
func (e *Engine) childFKs(parent string) []childFK {
	var out []childFK
	for _, lo := range e.tableOrder {
		t := e.tables[lo]
		for i := range t.ForeignKeys {
			if strings.EqualFold(t.ForeignKeys[i].ParentTable, parent) {
				out = append(out, childFK{table: t, fk: &t.ForeignKeys[i]})
			}
		}
	}
	return out
}

type childFK struct {
	table *Table
	fk    *ForeignKey
}

// SchemaSQL renders a table's definition as LLM-readable CREATE TABLE text,
// matching the representation in the paper's Figure 3.
func SchemaSQL(t *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (\n", t.Name)
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "  %s %s", c.Name, c.Type)
		if c.PrimaryKey && len(t.PrimaryKey) <= 1 {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.NotNull && !c.PrimaryKey {
			sb.WriteString(" NOT NULL")
		}
		if c.Unique {
			sb.WriteString(" UNIQUE")
		}
		if c.Default != nil {
			sb.WriteString(" DEFAULT " + c.Default.String())
		}
		if i < len(t.Columns)-1 || len(t.PrimaryKey) > 1 || len(t.ForeignKeys) > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	if len(t.PrimaryKey) > 1 {
		fmt.Fprintf(&sb, "  PRIMARY KEY (%s)", strings.Join(t.PrimaryKey, ", "))
		if len(t.ForeignKeys) > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	for i, fk := range t.ForeignKeys {
		fmt.Fprintf(&sb, "  FOREIGN KEY (%s) REFERENCES %s(%s)",
			strings.Join(fk.Columns, ", "), fk.ParentTable, strings.Join(fk.ParentColumns, ", "))
		if i < len(t.ForeignKeys)-1 {
			sb.WriteString(",")
		}
		sb.WriteString("\n")
	}
	sb.WriteString(");")
	return sb.String()
}

// ddlMemo holds the DDL text of the objects rendered since the catalog last
// changed. Its mutex is taken under the engine's read lock and guards
// nothing else.
type ddlMemo struct {
	mu      sync.Mutex
	version uint64
	text    map[string]string // lower-case object name -> DDL
}

// ObjectDDL returns the definition of a table (SchemaSQL) or view (ViewSQL)
// by case-insensitive name. Every toolkit on the engine asks for the same
// text on every get_schema, so it is rendered once per catalog version:
// anything that changes a definition — DDL, and ROLLBACK undoing DDL —
// advances the version under the engine's write lock, and the version is
// read and the catalog rendered under its read lock, so remembered text is
// never older than the catalog. (Grant changes advance it too; they only
// cost a re-render.)
func (e *Engine) ObjectDDL(name string) (string, bool) {
	lo := strings.ToLower(name)
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := &e.ddl
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := e.catalogVersion.Load(); v != m.version || m.text == nil {
		m.version, m.text = v, map[string]string{}
	}
	text, ok := m.text[lo]
	if !ok {
		if t, isTable := e.tables[lo]; isTable {
			text = SchemaSQL(t)
		} else if v, isView := e.views[lo]; isView {
			text = ViewSQL(v)
		} else {
			return "", false
		}
		m.text[lo] = text
	}
	return text, true
}

// ColumnValues returns the distinct values of a column in the latest
// committed state, sorted by their canonical keys, capped at limit
// (0 = unlimited). Used by the get_value exemplar tool.
func (e *Engine) ColumnValues(table, column string, limit int) ([]Value, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.Table(table)
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", table)
	}
	ci := t.ColIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("column %q does not exist in table %q", column, table)
	}
	seen := map[string]Value{}
	_ = t.visibleRows(latestView(nil), func(_ *rowEntry, rv *rowVersion) error {
		v := rv.vals[ci]
		if !v.IsNull() {
			seen[v.Key()] = v
		}
		return nil
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Value, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}
