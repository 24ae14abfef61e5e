package sqldb

import "strings"

// Stmt is a parsed SQL statement.
type Stmt interface {
	// StmtAction reports the privilege action the statement requires.
	StmtAction() Action
	stmtNode()
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // empty means a FROM-less SELECT (e.g. SELECT 1+1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    Expr // nil when absent
	Offset   Expr // nil when absent
}

// SelectItem is one projected expression with an optional alias. Star items
// have Star set (optionally with a table qualifier).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // qualifier for t.* items
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// TableRef is one entry in the FROM clause, optionally joined to the
// previous entry.
type TableRef struct {
	Table    string
	Alias    string
	JoinKind JoinKind
	On       Expr // nil for the first ref and comma joins
}

// JoinKind distinguishes how a TableRef combines with the preceding refs.
type JoinKind uint8

// Join kinds. The first FROM entry uses JoinNone; comma-separated tables use
// JoinCross.
const (
	JoinNone JoinKind = iota
	JoinCross
	JoinInner
	JoinLeft
)

// InsertStmt is an INSERT statement with literal VALUES rows.
type InsertStmt struct {
	Table   string
	Columns []string // empty means all table columns in order
	Rows    [][]Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr pair.
type Assignment struct {
	Column string
	Expr   Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PRIMARY KEY(...)
	ForeignKeys []ForeignKeyDef
}

// ColumnDef defines one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Kind
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr
	References *ForeignKeyDef // inline REFERENCES
}

// ForeignKeyDef declares a foreign key constraint.
type ForeignKeyDef struct {
	Columns       []string
	ParentTable   string
	ParentColumns []string
}

// DropTableStmt drops a table.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// CreateIndexStmt creates a single-column hash index.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// AlterTableStmt supports ADD COLUMN and RENAME TO.
type AlterTableStmt struct {
	Table     string
	AddColumn *ColumnDef
	RenameTo  string
}

// CreateViewStmt creates a view over a stored SELECT.
type CreateViewStmt struct {
	Name  string
	Query *SelectStmt
}

// DropViewStmt drops a view.
type DropViewStmt struct {
	Name     string
	IfExists bool
}

// BeginStmt starts a transaction, optionally naming an isolation level
// (BEGIN [TRANSACTION] [ISOLATION LEVEL ...]). The zero value is the
// default snapshot isolation.
type BeginStmt struct {
	Level IsolationLevel
}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt rolls back the current transaction.
type RollbackStmt struct{}

// ExplainStmt asks for the execution plan of a statement instead of running
// it. With Analyze set (EXPLAIN ANALYZE), the inner statement IS executed —
// with its normal lock class and side effects — and the rendered plan is
// annotated with the actual row counts and wall time of each operator.
type ExplainStmt struct {
	Stmt    Stmt
	Analyze bool
}

// GrantStmt grants privileges on a table to a user. Columns[i] optionally
// restricts Actions[i] to named columns (PostgreSQL column privileges,
// e.g. GRANT SELECT (id, name) ON t TO u).
type GrantStmt struct {
	Actions []Action   // nil means ALL PRIVILEGES
	Columns [][]string // parallel to Actions; nil entries mean all columns
	Table   string     // "*" means all tables
	Grantee string
}

// RevokeStmt revokes privileges on a table from a user.
type RevokeStmt struct {
	Actions []Action // nil means ALL PRIVILEGES
	Table   string
	Grantee string
}

func (*SelectStmt) stmtNode()      {}
func (*CreateViewStmt) stmtNode()  {}
func (*DropViewStmt) stmtNode()    {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*CreateTableStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}
func (*CreateIndexStmt) stmtNode() {}
func (*AlterTableStmt) stmtNode()  {}
func (*BeginStmt) stmtNode()       {}
func (*ExplainStmt) stmtNode()     {}
func (*CommitStmt) stmtNode()      {}
func (*RollbackStmt) stmtNode()    {}
func (*GrantStmt) stmtNode()       {}
func (*RevokeStmt) stmtNode()      {}

// StmtAction implementations map statements to privilege actions.
func (*SelectStmt) StmtAction() Action      { return ActionSelect }
func (*CreateViewStmt) StmtAction() Action  { return ActionCreate }
func (*DropViewStmt) StmtAction() Action    { return ActionDrop }
func (*InsertStmt) StmtAction() Action      { return ActionInsert }
func (*UpdateStmt) StmtAction() Action      { return ActionUpdate }
func (*DeleteStmt) StmtAction() Action      { return ActionDelete }
func (*CreateTableStmt) StmtAction() Action { return ActionCreate }
func (*DropTableStmt) StmtAction() Action   { return ActionDrop }
func (*CreateIndexStmt) StmtAction() Action { return ActionCreate }
func (*AlterTableStmt) StmtAction() Action  { return ActionAlter }
func (*BeginStmt) StmtAction() Action       { return ActionNone }
func (e *ExplainStmt) StmtAction() Action   { return e.Stmt.StmtAction() }
func (*CommitStmt) StmtAction() Action      { return ActionNone }
func (*RollbackStmt) StmtAction() Action    { return ActionNone }
func (*GrantStmt) StmtAction() Action       { return ActionGrant }
func (*RevokeStmt) StmtAction() Action      { return ActionGrant }

// ReferencedTables returns every table name a statement touches, for
// object-level privilege verification (paper §2.3, object-level tool
// verification). The named or main table comes first, then the FROM
// tables, then the tables read by subqueries in stmtExprs order, then those
// of nested statements (a view's query, an EXPLAIN target). Names are
// deduplicated case-insensitively, keeping the first spelling.
func ReferencedTables(s Stmt) []string {
	return appendTables(nil, s)
}

func appendTables(out []string, s Stmt) []string {
	add := func(name string) {
		if name == "" {
			return
		}
		for _, o := range out {
			if strings.EqualFold(o, name) {
				return
			}
		}
		out = append(out, name)
	}
	add(mainTable(s))
	if sel, ok := s.(*SelectStmt); ok {
		for _, tr := range sel.From {
			add(tr.Table)
		}
	}
	stmtExprs(s, func(e Expr) {
		walkExpr(e, func(x Expr) {
			if sq, ok := x.(*SubqueryExpr); ok {
				out = appendTables(out, sq.Query)
			}
		})
	})
	switch st := s.(type) {
	case *CreateViewStmt:
		out = appendTables(out, st.Query)
	case *ExplainStmt:
		out = appendTables(out, st.Stmt)
	}
	return out
}

// mainTable names the one table or view a statement acts on, or "" for
// statements without one (SELECT, EXPLAIN, transaction control).
func mainTable(stmt Stmt) string {
	switch st := stmt.(type) {
	case *InsertStmt:
		return st.Table
	case *UpdateStmt:
		return st.Table
	case *DeleteStmt:
		return st.Table
	case *CreateTableStmt:
		return st.Table
	case *DropTableStmt:
		return st.Table
	case *CreateIndexStmt:
		return st.Table
	case *AlterTableStmt:
		return st.Table
	case *GrantStmt:
		return st.Table
	case *RevokeStmt:
		return st.Table
	case *CreateViewStmt:
		return st.Name
	case *DropViewStmt:
		return st.Name
	}
	return ""
}

// stmtExprs calls fn on every top-level expression slot of s: the select
// list, FROM ... ON, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, OFFSET, SET,
// VALUES and column DEFAULTs. Absent optional slots are passed as nil. It
// does not descend into nested statements; callers recurse into a view's
// query or an EXPLAIN target themselves. This is the one list of where a
// statement holds expressions: object verification, column privileges and
// write-lock sets all read it.
func stmtExprs(s Stmt, fn func(Expr)) {
	switch st := s.(type) {
	case *SelectStmt:
		fn(st.Where)
		fn(st.Having)
		for _, it := range st.Items {
			fn(it.Expr)
		}
		for _, tr := range st.From {
			fn(tr.On)
		}
		for _, e := range st.GroupBy {
			fn(e)
		}
		for _, k := range st.OrderBy {
			fn(k.Expr)
		}
		fn(st.Limit)
		fn(st.Offset)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				fn(e)
			}
		}
	case *UpdateStmt:
		fn(st.Where)
		for _, a := range st.Set {
			fn(a.Expr)
		}
	case *DeleteStmt:
		fn(st.Where)
	case *CreateTableStmt:
		for _, c := range st.Columns {
			fn(c.Default)
		}
	case *AlterTableStmt:
		if st.AddColumn != nil {
			fn(st.AddColumn.Default)
		}
	}
}

// walkExpr visits e and every child expression.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.Left, fn)
		walkExpr(x.Right, fn)
	case *UnaryExpr:
		walkExpr(x.Operand, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *InExpr:
		walkExpr(x.Operand, fn)
		for _, a := range x.List {
			walkExpr(a, fn)
		}
		if x.Subquery != nil {
			walkExpr(x.Subquery, fn)
		}
	case *BetweenExpr:
		walkExpr(x.Operand, fn)
		walkExpr(x.Low, fn)
		walkExpr(x.High, fn)
	case *LikeExpr:
		walkExpr(x.Operand, fn)
		walkExpr(x.Pattern, fn)
	case *IsNullExpr:
		walkExpr(x.Operand, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Result, fn)
		}
		walkExpr(x.Else, fn)
	}
}

// HasAggregate reports whether the expression tree contains an aggregate
// function call.
func HasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncExpr); ok && f.IsAggregate() {
			found = true
		}
	})
	return found
}
