package sqldb

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestReferencedTables plants a subquery on "secrets" in every expression
// slot and every nested statement slot of every statement type, one slot at
// a time, and checks that ReferencedTables reports it. Slots are found by
// reflection over the AST types, so a field added later fails here until
// stmtExprs covers it.
func TestReferencedTables(t *testing.T) {
	stmts := []Stmt{
		&SelectStmt{}, &InsertStmt{}, &UpdateStmt{}, &DeleteStmt{},
		&CreateTableStmt{}, &DropTableStmt{}, &CreateIndexStmt{}, &AlterTableStmt{},
		&CreateViewStmt{}, &DropViewStmt{}, &BeginStmt{}, &CommitStmt{},
		&RollbackStmt{}, &ExplainStmt{}, &GrantStmt{}, &RevokeStmt{},
	}
	var listed []string
	for _, s := range stmts {
		listed = append(listed, reflect.TypeOf(s).Elem().Name())
	}
	if declared := declaredStmtTypes(t); !slices.Equal(sorted(listed), declared) {
		t.Fatalf("statement types under test %v, declared %v: list every Stmt here", sorted(listed), declared)
	}
	slots := 0
	for _, proto := range stmts {
		typ := reflect.TypeOf(proto).Elem()
		for target := 0; ; target++ {
			p := &planter{t: t, target: target, expr: &SubqueryExpr{Query: readsSecrets()}}
			v := reflect.New(typ)
			p.fill(v.Elem(), typ.Name())
			if p.n <= target {
				break
			}
			slots++
			got := ReferencedTables(v.Interface().(Stmt))
			if !slices.Contains(got, "secrets") {
				t.Errorf("subquery in %s: ReferencedTables = %v, want secrets", p.path, got)
			}
		}
	}
	if slots == 0 {
		t.Fatal("no expression slots found")
	}

	// Named tables come first, then subquery tables in slot order: the
	// toolkit's verification reads tables after the first as reads.
	for sql, want := range map[string][]string{
		`SELECT a.x FROM t1 a JOIN t2 ON a.id = t2.id WHERE a.y IN (SELECT z FROM t3)`:             {"t1", "t2", "t3"},
		`UPDATE t1 SET x = (SELECT y FROM t2) WHERE id IN (SELECT id FROM t3)`:                     {"t1", "t3", "t2"},
		`SELECT x FROM t1 JOIN T1 b ON b.x IN (SELECT x FROM t2) ORDER BY (SELECT MAX(x) FROM T2)`: {"t1", "t2"},
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := ReferencedTables(stmt); !slices.Equal(got, want) {
			t.Errorf("ReferencedTables(%s) = %v, want %v", sql, got, want)
		}
	}
}

// declaredStmtTypes lists, sorted, the receiver types of every stmtNode
// method in the package's non-test sources.
func declaredStmtTypes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, name, nil, goparser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "stmtNode" {
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
				out = append(out, star.X.(*ast.Ident).Name)
			}
		}
	}
	return sorted(out)
}

func sorted(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

var (
	exprIface = reflect.TypeOf((*Expr)(nil)).Elem()
	stmtIface = reflect.TypeOf((*Stmt)(nil)).Elem()
)

// planter fills a zero statement so that every slice holds one element and
// every pointer is set, counting expression and statement slots on the way.
// The target-th slot gets expr, or a SELECT on secrets if it holds a
// statement; every other slot stays empty, except that nested statement
// slots get a SELECT whose own slots count.
type planter struct {
	t      *testing.T
	target int
	expr   Expr
	n      int    // slots seen so far
	path   string // where the read was planted
}

func (p *planter) slot(path string) bool {
	hit := p.n == p.target
	if hit {
		p.path = path
	}
	p.n++
	return hit
}

func readsSecrets() *SelectStmt {
	return &SelectStmt{
		Items: []SelectItem{{Expr: &ColumnRef{Name: "payload"}}},
		From:  []TableRef{{Table: "secrets"}},
	}
}

func (p *planter) fill(v reflect.Value, path string) {
	typ := v.Type()
	switch {
	case typ == exprIface:
		if p.slot(path) {
			v.Set(reflect.ValueOf(p.expr))
		}
		return
	case typ.Implements(stmtIface):
		sel := &SelectStmt{}
		if p.slot(path) {
			sel = readsSecrets()
		} else {
			p.fill(reflect.ValueOf(sel).Elem(), path+"(SELECT)")
		}
		if !reflect.TypeOf(sel).AssignableTo(typ) {
			p.t.Fatalf("%s: cannot plant a SELECT in a %s slot; teach this test that type", path, typ)
		}
		v.Set(reflect.ValueOf(sel))
		return
	}
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).IsExported() {
				p.t.Fatalf("%s.%s: unexported AST field; teach this test to reach it", path, typ.Field(i).Name)
			}
			p.fill(v.Field(i), path+"."+typ.Field(i).Name)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(typ, 1, 1)
		p.fill(s.Index(0), path+"[0]")
		v.Set(s)
	case reflect.Pointer:
		n := reflect.New(typ.Elem())
		p.fill(n.Elem(), path)
		v.Set(n)
	case reflect.Interface, reflect.Map, reflect.Array, reflect.Chan, reflect.Func:
		p.t.Fatalf("%s: AST field of kind %s; teach this test to plant in it", path, typ.Kind())
	}
}

// Each statement reads secrets from a slot the privilege check once skipped;
// user u holds ALL on items and sales and nothing on secrets.
var subqueryLeakProbes = []string{
	`UPDATE items SET name = (SELECT payload FROM secrets WHERE id = 1) WHERE id = 1`,
	`INSERT INTO items VALUES (9, (SELECT payload FROM secrets WHERE id = 1), 'x', 1.0)`,
	`SELECT id FROM items ORDER BY (SELECT COUNT(*) FROM secrets)`,
	`SELECT id FROM items LIMIT (SELECT COUNT(*) FROM secrets)`,
	`SELECT id FROM items LIMIT 10 OFFSET (SELECT COUNT(*) FROM secrets)`,
	`SELECT i.id FROM items i JOIN sales s ON s.item_id = i.id AND i.name IN (SELECT payload FROM secrets)`,
	`SELECT COUNT(*) FROM items GROUP BY (SELECT payload FROM secrets WHERE id = 1)`,
}

// joinOnColumnProbe reads secrets.payload only in JOIN ... ON; user c may
// read secrets.id alone.
const joinOnColumnProbe = `SELECT s.id FROM items i JOIN secrets s ON i.id = s.id AND s.payload = 'classified'`

func TestEveryReadIsPrivilegeChecked(t *testing.T) {
	e := NewEngine("store")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, category TEXT, price REAL)`)
	root.MustExec(`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT, amount REAL)`)
	root.MustExec(`CREATE TABLE secrets (id INT PRIMARY KEY, payload TEXT)`)
	root.MustExec(`INSERT INTO items VALUES (1, 'shirt', 'women', 19.99), (2, 'jeans', 'men', 49.5)`)
	root.MustExec(`INSERT INTO sales VALUES (10, 1, 2, 39.98)`)
	root.MustExec(`INSERT INTO secrets VALUES (1, 'classified')`)
	for _, tbl := range []string{"items", "sales"} {
		e.Grants().GrantAll("u", tbl)
		e.Grants().GrantAll("c", tbl)
	}
	e.Grants().GrantColumns("c", ActionSelect, "secrets", []string{"id"})

	refused := func(s *Session, sql, object string) {
		t.Helper()
		_, err := s.Exec(sql)
		var pe *PermissionError
		if !errors.As(err, &pe) || pe.Object != object {
			t.Errorf("%s: got %v, want a permission error on %s", sql, err, object)
		}
	}
	u := e.NewSession("u")
	for _, sql := range subqueryLeakProbes {
		refused(u, sql, "secrets")
	}
	c := e.NewSession("c")
	refused(c, joinOnColumnProbe, "secrets.payload")
	// The column check reads every expression slot of a SELECT.
	for target := 0; ; target++ {
		p := &planter{t: t, target: target, expr: &ColumnRef{Table: "secrets", Name: "payload"}}
		st := &SelectStmt{}
		p.fill(reflect.ValueOf(st).Elem(), "SelectStmt")
		if p.n <= target {
			break
		}
		st.From[0].Table = "secrets"
		var pe *PermissionError
		if err := c.checkColumnPrivileges(st); !errors.As(err, &pe) || pe.Object != "secrets.payload" {
			t.Errorf("secrets.payload in %s: got %v, want a permission error", p.path, err)
		}
	}
	if r := root.MustExec(`SELECT name FROM items WHERE id = 1`); r.Rows[0][0].S != "shirt" {
		t.Fatalf("a refused UPDATE wrote items: %v", r.Rows)
	}
	// The probes are well-formed: a user who may read secrets runs them.
	root.MustExec(`BEGIN`)
	for _, sql := range append(subqueryLeakProbes, joinOnColumnProbe) {
		root.MustExec(sql)
	}
	root.MustExec(`ROLLBACK`)
}
