package sqldb

import (
	"fmt"
	"strings"
)

// execInsert validates and appends rows. All constraint checks (types,
// NOT NULL, PK/UNIQUE, foreign keys) run per row; a failure aborts the whole
// statement via the statement undo scope.
func (s *Session) execInsert(st *InsertStmt) (*Result, error) {
	t, ok := s.engine.Table(st.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	// Resolve target column positions.
	var target []int
	if len(st.Columns) == 0 {
		target = make([]int, len(t.Columns))
		for i := range t.Columns {
			target[i] = i
		}
	} else {
		for _, c := range st.Columns {
			i := t.ColIndex(c)
			if i < 0 {
				return nil, &NotFoundError{Kind: "column", Name: st.Table + "." + c}
			}
			target = append(target, i)
		}
	}
	inserted := 0
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(target) {
			return nil, fmt.Errorf("INSERT has %d values but %d columns", len(rowExprs), len(target))
		}
		vals := make([]Value, len(t.Columns))
		assigned := make([]bool, len(t.Columns))
		rowEnv := &Env{sess: s}
		for i, e := range rowExprs {
			v, err := e.Eval(rowEnv)
			if err != nil {
				return nil, err
			}
			vals[target[i]] = v
			assigned[target[i]] = true
		}
		for i := range vals {
			if !assigned[i] {
				if t.Columns[i].Default != nil {
					dv, err := t.Columns[i].Default.Eval(nil)
					if err != nil {
						return nil, err
					}
					vals[i] = dv
				} else {
					vals[i] = Null()
				}
			}
		}
		if err := s.checkRowConstraints(t, vals, nil); err != nil {
			return nil, err
		}
		// Version installation is the only part readers must not observe
		// half-done; everything above ran outside the engine write lock.
		s.engine.mu.Lock()
		e := t.insertEntry(vals, s.writerTxn())
		s.engine.mu.Unlock()
		s.record(undoOp{kind: undoInsert, table: t, entry: e, ver: e.v})
		s.redoInsert(t, e)
		inserted++
	}
	return &Result{Affected: inserted, Message: fmt.Sprintf("INSERT 0 %d", inserted)}, nil
}

// keyState classifies whether entry e "holds" a matching row from the
// write perspective of txn — the shared MVCC classifier behind unique/PK
// checks and both directions of FK enforcement. taken: the latest
// committed-or-own version matches (and is not being deleted by someone
// else). pending: a matching version was created or delete-stamped by
// another still-open transaction, so that transaction's outcome decides
// and the statement must fail retryably rather than guess.
func keyState(e *rowEntry, txn *Txn, match func([]Value) bool) (taken, pending bool) {
	if wv := e.visible(latestView(txn)); wv != nil && match(wv.vals) {
		if wv.xmaxTxn != nil && wv.xmaxTxn != txn {
			return false, true // deleted by an open transaction; may roll back
		}
		return true, false
	}
	for v := e.v; v != nil; v = v.prev {
		if !match(v.vals) {
			continue
		}
		if (v.xminTxn != nil && v.xminTxn != txn) || (v.xmaxTxn != nil && v.xmaxTxn != txn) {
			return false, true
		}
	}
	return false, false
}

// checkRowConstraints validates a candidate row. self is non-nil for
// updates, to exclude the row being replaced from uniqueness checks.
func (s *Session) checkRowConstraints(t *Table, vals []Value, self *rowEntry) error {
	// Types + NOT NULL.
	for i, c := range t.Columns {
		cv, err := CoerceTo(vals[i], c.Type)
		if err != nil {
			return fmt.Errorf("column %q: %w", c.Name, err)
		}
		vals[i] = cv
		if cv.IsNull() && (c.NotNull || c.PrimaryKey || contains(t.PrimaryKey, c.Name)) {
			return fmt.Errorf("null value in column %q of table %q violates not-null constraint", c.Name, t.Name)
		}
	}
	// Primary key uniqueness. Buckets cover whole version chains, so each
	// candidate is resolved against the latest committed state (plus this
	// transaction's own writes); a key held only by another transaction's
	// uncommitted insert or delete fails retryably.
	txn := s.writerTxn()
	if t.pkMap != nil {
		k := t.pkKey(vals)
		for _, id := range t.pkMap[k] {
			if self != nil && id == self.id {
				continue
			}
			e := t.byID[id]
			if e == nil {
				continue
			}
			taken, pending := keyState(e, txn, func(vv []Value) bool { return t.pkKey(vv) == k })
			if taken {
				return fmt.Errorf("duplicate key value violates primary key constraint on table %q", t.Name)
			}
			if pending {
				return &SerializationError{Table: t.Name}
			}
		}
	}
	// UNIQUE columns (auto-indexed at table creation).
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		v := vals[ix.col]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		col := ix.col
		for _, id := range ix.m[k] {
			if self != nil && id == self.id {
				continue
			}
			e := t.byID[id]
			if e == nil {
				continue
			}
			taken, pending := keyState(e, txn, func(vv []Value) bool { return vv[col].Key() == k })
			if taken {
				return fmt.Errorf("duplicate key value violates unique constraint on %q.%q", t.Name, ix.Column)
			}
			if pending {
				return &SerializationError{Table: t.Name}
			}
		}
	}
	// Foreign keys: child side must reference an existing parent row.
	for _, fk := range t.ForeignKeys {
		if err := s.checkFKParentExists(t, &fk, vals); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) checkFKParentExists(t *Table, fk *ForeignKey, vals []Value) error {
	parent, ok := s.engine.Table(fk.ParentTable)
	if !ok {
		return &NotFoundError{Kind: "table", Name: fk.ParentTable}
	}
	childVals := make([]Value, len(fk.Columns))
	for i, c := range fk.Columns {
		ci := t.ColIndex(c)
		if ci < 0 {
			return &NotFoundError{Kind: "column", Name: t.Name + "." + c}
		}
		childVals[i] = vals[ci]
		if childVals[i].IsNull() {
			return nil // NULL FK values are always permitted
		}
	}
	parentCols := fk.ParentColumns
	if len(parentCols) == 0 {
		parentCols = parent.PrimaryKey
	}
	if len(parentCols) != len(fk.Columns) {
		return fmt.Errorf("foreign key on %q has mismatched column count", t.Name)
	}
	pIdx := make([]int, len(parentCols))
	for i, c := range parentCols {
		pi := parent.ColIndex(c)
		if pi < 0 {
			return &NotFoundError{Kind: "column", Name: parent.Name + "." + c}
		}
		pIdx[i] = pi
	}
	// FK checks act on the latest committed state plus the writer's own
	// changes, not the statement snapshot: a parent committed moments ago
	// must satisfy the constraint. Another transaction's PENDING write on a
	// candidate parent (an uncommitted insert that would create it, or an
	// uncommitted delete of the one that exists) makes the outcome depend
	// on that transaction — keyState classifies it, and pending fails
	// retryably instead of guessing.
	txn := s.writerTxn()
	match := func(vals []Value) bool {
		for i, pi := range pIdx {
			if !Equal(vals[pi], childVals[i]) {
				return false
			}
		}
		return true
	}
	pendingAny := false
	// Fast path: FK targets the parent's whole primary key.
	if samePKCols(parent, pIdx) {
		var kb strings.Builder
		for _, v := range childVals {
			writeKeySegment(&kb, v)
		}
		for _, id := range parent.pkMap[kb.String()] {
			e := parent.byID[id]
			if e == nil {
				continue
			}
			taken, pending := keyState(e, txn, match)
			if taken {
				return nil
			}
			pendingAny = pendingAny || pending
		}
		if pendingAny {
			return &SerializationError{Table: t.Name}
		}
		return fkViolation(t, fk, childVals)
	}
	for _, e := range parent.rows {
		taken, pending := keyState(e, txn, match)
		if taken {
			return nil
		}
		pendingAny = pendingAny || pending
	}
	if pendingAny {
		return &SerializationError{Table: t.Name}
	}
	return fkViolation(t, fk, childVals)
}

func fkViolation(t *Table, fk *ForeignKey, vals []Value) error {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return fmt.Errorf("insert or update on table %q violates foreign key constraint: key (%s)=(%s) is not present in table %q",
		t.Name, strings.Join(fk.Columns, ", "), strings.Join(parts, ", "), fk.ParentTable)
}

func samePKCols(t *Table, idx []int) bool {
	if t.pkMap == nil || len(idx) != len(t.pkCols) {
		return false
	}
	for i, v := range idx {
		if t.pkCols[i] != v {
			return false
		}
	}
	return true
}

// checkNoChildRefs enforces RESTRICT semantics when deleting or re-keying a
// parent row.
func (s *Session) checkNoChildRefs(parent *Table, parentVals []Value) error {
	for _, cf := range s.engine.childFKs(parent.Name) {
		parentCols := cf.fk.ParentColumns
		if len(parentCols) == 0 {
			parentCols = parent.PrimaryKey
		}
		keyVals := make([]Value, len(parentCols))
		skip := false
		for i, c := range parentCols {
			pi := parent.ColIndex(c)
			if pi < 0 {
				skip = true
				break
			}
			keyVals[i] = parentVals[pi]
		}
		if skip {
			continue
		}
		cIdx := make([]int, len(cf.fk.Columns))
		ok := true
		for i, c := range cf.fk.Columns {
			ci := cf.table.ColIndex(c)
			if ci < 0 {
				ok = false
				break
			}
			cIdx[i] = ci
		}
		if !ok {
			continue
		}
		// A child referencing the key blocks the parent write. A PENDING
		// child — another transaction's uncommitted insert of a reference,
		// or an uncommitted delete of the one that exists — makes the
		// outcome depend on that transaction: keyState classifies it, and
		// pending fails retryably.
		txn := s.writerTxn()
		match := func(vals []Value) bool {
			for i, ci := range cIdx {
				if vals[ci].IsNull() || !Equal(vals[ci], keyVals[i]) {
					return false
				}
			}
			return true
		}
		violated, pending := false, false
		for _, e := range cf.table.rows {
			taken, pend := keyState(e, txn, match)
			if taken {
				violated = true
				break
			}
			pending = pending || pend
		}
		if violated {
			return fmt.Errorf("update or delete on table %q violates foreign key constraint on table %q",
				parent.Name, cf.table.Name)
		}
		if pending {
			return &SerializationError{Table: parent.Name}
		}
	}
	return nil
}

// execUpdate runs an UPDATE. wp is the row-matching plan — cached, or nil to
// plan now.
func (s *Session) execUpdate(st *UpdateStmt, wp *WritePlan) (*Result, error) {
	t, ok := s.engine.Table(st.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	for _, a := range st.Set {
		if t.ColIndex(a.Column) < 0 {
			return nil, &NotFoundError{Kind: "column", Name: st.Table + "." + a.Column}
		}
	}
	if wp == nil {
		wp = s.planWrite(st.Table, st.Where)
	}
	matches, err := wp.matchEntries(s)
	if err != nil {
		return nil, err
	}
	env := &Env{cols: tableEnvCols(t, ""), sess: s}
	for _, e := range matches {
		// First-committer-wins: a concurrent version newer than our
		// snapshot (committed or in flight) aborts the statement retryably
		// before anything is installed.
		if err := s.checkWriteConflict(t, e); err != nil {
			return nil, err
		}
		// The conflict check guarantees the chain head is the version our
		// snapshot matched (or our own earlier write), so SET expressions
		// evaluate against it.
		oldVals := e.v.vals
		env.vals = oldVals
		newVals := append([]Value{}, oldVals...)
		for _, a := range st.Set {
			v, err := a.Expr.Eval(env)
			if err != nil {
				return nil, err
			}
			newVals[t.ColIndex(a.Column)] = v
		}
		if err := s.checkRowConstraints(t, newVals, e); err != nil {
			return nil, err
		}
		// If this row is a FK parent and its key columns changed, enforce
		// RESTRICT against children referencing the old key.
		if keyChanged(t, s.engine, oldVals, newVals) {
			if err := s.checkNoChildRefs(t, oldVals); err != nil {
				return nil, err
			}
		}
		s.engine.mu.Lock()
		ver := t.installVersion(e, newVals, s.writerTxn())
		s.engine.mu.Unlock()
		s.record(undoOp{kind: undoUpdate, table: t, entry: e, ver: ver})
		s.redoUpdate(t, e)
	}
	return &Result{Affected: len(matches), Message: fmt.Sprintf("UPDATE %d", len(matches))}, nil
}

// keyChanged reports whether any column referenced by a child FK changed.
func keyChanged(t *Table, e *Engine, oldVals, newVals []Value) bool {
	for _, cf := range e.childFKs(t.Name) {
		parentCols := cf.fk.ParentColumns
		if len(parentCols) == 0 {
			parentCols = t.PrimaryKey
		}
		for _, c := range parentCols {
			pi := t.ColIndex(c)
			if pi >= 0 && !Equal(oldVals[pi], newVals[pi]) {
				return true
			}
		}
	}
	return false
}

// execDelete runs a DELETE. wp is the row-matching plan — cached, or nil to
// plan now.
func (s *Session) execDelete(st *DeleteStmt, wp *WritePlan) (*Result, error) {
	t, ok := s.engine.Table(st.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	if wp == nil {
		wp = s.planWrite(st.Table, st.Where)
	}
	matches, err := wp.matchEntries(s)
	if err != nil {
		return nil, err
	}
	for _, e := range matches {
		if err := s.checkWriteConflict(t, e); err != nil {
			return nil, err
		}
		if err := s.checkNoChildRefs(t, e.v.vals); err != nil {
			return nil, err
		}
		s.engine.mu.Lock()
		ver := t.deleteVersion(e, s.writerTxn())
		s.engine.mu.Unlock()
		s.record(undoOp{kind: undoDelete, table: t, entry: e, ver: ver})
		s.redoDelete(t, e)
	}
	return &Result{Affected: len(matches), Message: fmt.Sprintf("DELETE %d", len(matches))}, nil
}

// tableEnvCols is the column layout of a scan of t under alias (the table's
// own name when alias is empty).
func tableEnvCols(t *Table, alias string) []envCol {
	out := make([]envCol, len(t.Columns))
	lo := strings.ToLower(alias)
	if lo == "" {
		lo = strings.ToLower(t.Name)
	}
	for i, c := range t.Columns {
		out[i] = envCol{table: lo, name: strings.ToLower(c.Name)}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if strings.EqualFold(v, s) {
			return true
		}
	}
	return false
}

// --- DDL ---

func (s *Session) execCreateTable(st *CreateTableStmt) (*Result, error) {
	if _, exists := s.engine.Table(st.Table); exists {
		if st.IfNotExists {
			return &Result{Message: "CREATE TABLE (exists, skipped)"}, nil
		}
		return nil, fmt.Errorf("table %q already exists", st.Table)
	}
	cols := make([]Column, len(st.Columns))
	var pk []string
	fks := append([]ForeignKeyDef{}, st.ForeignKeys...)
	for i, cd := range st.Columns {
		cols[i] = Column{
			Name:       cd.Name,
			Type:       cd.Type,
			NotNull:    cd.NotNull,
			PrimaryKey: cd.PrimaryKey,
			Unique:     cd.Unique,
			Default:    cd.Default,
		}
		if cd.PrimaryKey {
			pk = append(pk, cd.Name)
		}
		if cd.References != nil {
			fks = append(fks, *cd.References)
		}
	}
	if len(st.PrimaryKey) > 0 {
		if len(pk) > 0 {
			return nil, fmt.Errorf("multiple primary keys for table %q", st.Table)
		}
		pk = st.PrimaryKey
		for i := range cols {
			if contains(pk, cols[i].Name) {
				cols[i].PrimaryKey = true
			}
		}
	}
	var tableFKs []ForeignKey
	for _, fk := range fks {
		parent, ok := s.engine.Table(fk.ParentTable)
		if !ok {
			return nil, &NotFoundError{Kind: "table", Name: fk.ParentTable}
		}
		parentCols := fk.ParentColumns
		if len(parentCols) == 0 {
			parentCols = parent.PrimaryKey
			if len(parentCols) == 0 {
				return nil, fmt.Errorf("referenced table %q has no primary key", fk.ParentTable)
			}
		}
		tableFKs = append(tableFKs, ForeignKey{
			Columns:       fk.Columns,
			ParentTable:   parent.Name,
			ParentColumns: parentCols,
		})
	}
	t, err := newTable(st.Table, cols, pk, tableFKs)
	if err != nil {
		return nil, err
	}
	if err := s.engine.createTable(t); err != nil {
		return nil, err
	}
	s.record(undoOp{kind: undoCreate, table: t})
	// SchemaSQL renders the resolved definition (types, PK, FKs) in the
	// exact dialect the parser accepts back, so replay re-creates the table
	// through the normal DDL path.
	s.redoCreateTable(t)
	return &Result{Message: "CREATE TABLE"}, nil
}

func (s *Session) execDropTable(st *DropTableStmt) (*Result, error) {
	if _, exists := s.engine.Table(st.Table); !exists {
		if st.IfExists {
			return &Result{Message: "DROP TABLE (absent, skipped)"}, nil
		}
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	pos := -1
	lo := strings.ToLower(st.Table)
	for i, n := range s.engine.tableOrder {
		if n == lo {
			pos = i
			break
		}
	}
	t, err := s.engine.dropTable(st.Table)
	if err != nil {
		return nil, err
	}
	s.record(undoOp{kind: undoDrop, table: t, tablePos: pos})
	s.redoDDL("DROP TABLE " + t.Name)
	return &Result{Message: "DROP TABLE"}, nil
}

func (s *Session) execCreateIndex(st *CreateIndexStmt) (*Result, error) {
	t, ok := s.engine.Table(st.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	ci := t.ColIndex(st.Column)
	if ci < 0 {
		return nil, &NotFoundError{Kind: "column", Name: st.Table + "." + st.Column}
	}
	key := strings.ToLower(st.Column)
	if _, exists := t.indexes[key]; exists {
		return nil, fmt.Errorf("an index on %q.%q already exists", st.Table, st.Column)
	}
	if st.Unique {
		// Uniqueness is checked against the latest committed state plus
		// this session's own writes. A row another open transaction is
		// inserting or deleting could still change the answer when it
		// settles, so any pending write on the table fails the CREATE
		// retryably rather than certifying an index that may hold
		// committed duplicates a moment later.
		txn := s.writerTxn()
		seen := map[string]bool{}
		dup, pending := false, false
		for _, e := range t.rows {
			for v := e.v; v != nil; v = v.prev {
				if (v.xminTxn != nil && v.xminTxn != txn) || (v.xmaxTxn != nil && v.xmaxTxn != txn) {
					pending = true
				}
			}
			wv := e.visible(latestView(txn))
			if wv == nil {
				continue
			}
			v := wv.vals[ci]
			if v.IsNull() {
				continue
			}
			k := v.Key()
			if seen[k] {
				dup = true
			}
			seen[k] = true
		}
		// Pending wins over dup: a duplicate involving a row another
		// transaction is deleting may dissolve when it commits, so the
		// retryable error is the honest one; the duplicate report is only
		// final when the table is quiescent.
		if pending {
			return nil, &SerializationError{Table: t.Name}
		}
		if dup {
			return nil, fmt.Errorf("cannot create unique index: duplicate values in %q.%q", st.Table, st.Column)
		}
	}
	t.addIndex(&Index{Name: st.Name, Column: st.Column, Unique: st.Unique})
	s.engine.bumpCatalog()
	s.record(undoOp{kind: undoIndex, table: t, indexCol: key})
	uniq := ""
	if st.Unique {
		uniq = "UNIQUE "
	}
	s.redoDDL(fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", uniq, st.Name, t.Name, st.Column))
	return &Result{Message: "CREATE INDEX"}, nil
}

func (s *Session) execAlterTable(st *AlterTableStmt) (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("ALTER TABLE cannot run inside a transaction")
	}
	t, ok := s.engine.Table(st.Table)
	if !ok {
		return nil, &NotFoundError{Kind: "table", Name: st.Table}
	}
	switch {
	case st.AddColumn != nil:
		cd := st.AddColumn
		if t.ColIndex(cd.Name) >= 0 {
			return nil, fmt.Errorf("column %q already exists in table %q", cd.Name, st.Table)
		}
		if cd.NotNull && cd.Default == nil && t.RowCount() > 0 {
			return nil, fmt.Errorf("cannot add NOT NULL column %q without a default", cd.Name)
		}
		var fill Value = Null()
		if cd.Default != nil {
			dv, err := cd.Default.Eval(nil)
			if err != nil {
				return nil, err
			}
			fill = dv
		}
		t.Columns = append(t.Columns, Column{
			Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull,
			Unique: cd.Unique, Default: cd.Default,
		})
		// Every version of every chain gains the column so old snapshots
		// keep reading arity-consistent rows (DDL itself is not versioned).
		for _, r := range t.rows {
			for v := r.v; v != nil; v = v.prev {
				v.vals = append(v.vals, fill)
			}
		}
		s.engine.bumpCatalog()
		s.redoDDL(fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s", t.Name, columnDefSQL(cd)))
		return &Result{Message: "ALTER TABLE ADD COLUMN"}, nil
	case st.RenameTo != "":
		if _, exists := s.engine.Table(st.RenameTo); exists {
			return nil, fmt.Errorf("table %q already exists", st.RenameTo)
		}
		oldLo, newLo := strings.ToLower(t.Name), strings.ToLower(st.RenameTo)
		delete(s.engine.tables, oldLo)
		t.Name = st.RenameTo
		s.engine.tables[newLo] = t
		for i, n := range s.engine.tableOrder {
			if n == oldLo {
				s.engine.tableOrder[i] = newLo
			}
		}
		s.engine.bumpCatalog()
		s.redoDDL(fmt.Sprintf("ALTER TABLE %s RENAME TO %s", oldLo, st.RenameTo))
		return &Result{Message: "ALTER TABLE RENAME"}, nil
	}
	return nil, fmt.Errorf("unsupported ALTER TABLE action")
}

func (s *Session) execGrant(st *GrantStmt) (*Result, error) {
	actions := st.Actions
	if actions == nil {
		actions = AllActions
	}
	// All of the statement's privilege records commit as one WAL frame with
	// a single durability wait, parked on the session until the executor has
	// released every lock; a parked error from an earlier direct-API
	// mutation surfaces here too rather than vanishing.
	s.grantTok = s.engine.logGrantsBatched(func() {
		for i, a := range actions {
			if st.Columns != nil && i < len(st.Columns) && st.Columns[i] != nil {
				s.engine.grants.GrantColumns(st.Grantee, a, st.Table, st.Columns[i])
				continue
			}
			s.engine.grants.Grant(st.Grantee, a, st.Table)
		}
	})
	if werr := s.engine.takeGrantWALErr(); werr != nil {
		return nil, fmt.Errorf("GRANT applied in memory but not durable: %w", werr)
	}
	return &Result{Message: "GRANT"}, nil
}

func (s *Session) execCreateView(st *CreateViewStmt) (*Result, error) {
	v := &View{Name: st.Name, Query: st.Query}
	if err := s.engine.createView(v); err != nil {
		return nil, err
	}
	s.record(undoOp{kind: undoCreateView, view: v})
	s.redoDDL(ViewSQL(v))
	return &Result{Message: "CREATE VIEW"}, nil
}

func (s *Session) execDropView(st *DropViewStmt) (*Result, error) {
	if _, exists := s.engine.ViewByName(st.Name); !exists {
		if st.IfExists {
			return &Result{Message: "DROP VIEW (absent, skipped)"}, nil
		}
		return nil, &NotFoundError{Kind: "view", Name: st.Name}
	}
	v, err := s.engine.dropView(st.Name)
	if err != nil {
		return nil, err
	}
	s.record(undoOp{kind: undoDropView, view: v})
	s.redoDDL("DROP VIEW " + v.Name)
	return &Result{Message: "DROP VIEW"}, nil
}

func (s *Session) execRevoke(st *RevokeStmt) (*Result, error) {
	actions := st.Actions
	if actions == nil {
		actions = AllActions
	}
	s.grantTok = s.engine.logGrantsBatched(func() {
		for _, a := range actions {
			s.engine.grants.Revoke(st.Grantee, a, st.Table)
		}
	})
	if werr := s.engine.takeGrantWALErr(); werr != nil {
		return nil, fmt.Errorf("REVOKE applied in memory but not durable: %w", werr)
	}
	return &Result{Message: "REVOKE"}, nil
}
