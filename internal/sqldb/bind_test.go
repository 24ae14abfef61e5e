package sqldb

import (
	"math/rand"
	"testing"
)

// TestBinderMatchesUnboundEvaluation: for every expression form, the bound
// tree and the original evaluate to the same value or the same error over
// random rows, and the binder reports an expression as not parallel-safe
// exactly when it holds a subquery or a reference its layout cannot resolve
// (an outer reference).
func TestBinderMatchesUnboundEvaluation(t *testing.T) {
	e := NewEngine("bind")
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE k (id INT PRIMARY KEY, w INT)")
	s.MustExec("INSERT INTO k VALUES (1, 10), (2, 20), (3, 30)")
	s.curView = s.stmtView()

	cols := []envCol{{"a", "x"}, {"a", "y"}, {"a", "s"}, {"b", "x"}, {"b", "f"}}
	outer := &Env{cols: []envCol{{"o", "z"}}, vals: []Value{NewInt(2)}}
	cases := []struct {
		expr string
		safe bool
	}{
		{"42", true},
		{"a.x", true},
		{"y", true},
		{"x", true}, // ambiguous bare name: stays in place, Lookup reports it
		{"a.x + b.x * 2 - y", true},
		{"a.x / (y - 3)", true},
		{"a.x % 4 = 1 AND s IS NOT NULL OR f > 0.5", true},
		{"NOT (a.x < y)", true},
		{"-f", true},
		{"-s", true},
		{"UPPER(s) || 'x'", true},
		{"COALESCE(s, 'none')", true},
		{"ROUND(f * 100, 1)", true},
		{"SQRT(a.x - 5)", true},
		{"a.x IN (1, 2, y)", true},
		{"a.x NOT IN (1, NULL)", true},
		{"y BETWEEN a.x AND b.x", true},
		{"s LIKE 'a%'", true},
		{"s NOT LIKE '_b'", true},
		{"f IS NULL", true},
		{"CASE WHEN a.x > 5 THEN s WHEN y > 5 THEN 'y' ELSE 'neither' END", true},
		{"CASE WHEN f > 0.5 THEN 1 END", true},
		{"nosuch + 1", false},
		{"z", false},
		{"o.z + a.x", false},
		{"c.x", false},
		{"(SELECT w FROM k WHERE id = 2)", false},
		{"a.x + (SELECT COUNT(*) FROM k)", false},
		{"(SELECT w FROM k WHERE k.id = z)", false},
		{"(SELECT w FROM k WHERE k.id = a.x % 4)", false},
		{"a.x % 4 IN (SELECT id FROM k)", false},
		{"y NOT IN (SELECT id FROM k WHERE w > a.x)", false},
		{"CASE WHEN a.x IN (SELECT id FROM k) THEN 1 ELSE z END", false},
	}
	rng := rand.New(rand.NewSource(5))
	randVal := func(kind int) Value {
		if rng.Intn(6) == 0 {
			return Null()
		}
		switch kind {
		case 0:
			return NewInt(int64(rng.Intn(12)))
		case 1:
			return NewFloat(rng.Float64())
		}
		return NewText([]string{"ab", "abc", "b", "", "xb"}[rng.Intn(5)])
	}
	for _, c := range cases {
		stmt, err := Parse("SELECT " + c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		orig := stmt.(*SelectStmt).Items[0].Expr
		bound, safe := bindExpr(orig, cols)
		if safe != c.safe {
			t.Errorf("%s: parallel-safe = %v, want %v", c.expr, safe, c.safe)
		}
		env := &Env{cols: cols, outer: outer, sess: s}
		for i := 0; i < 50; i++ {
			env.vals = []Value{randVal(0), randVal(0), randVal(2), randVal(0), randVal(1)}
			want, wantErr := orig.Eval(env)
			got, gotErr := bound.Eval(env)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s over %v: bound err %v, original err %v", c.expr, env.vals, gotErr, wantErr)
			}
			if got != want {
				t.Fatalf("%s over %v: bound %v, original %v", c.expr, env.vals, got, want)
			}
		}
	}

	// An aggregate call keeps its original node: Env.agg is keyed by it.
	stmt, err := Parse("SELECT SUM(a.x) + y FROM k")
	if err != nil {
		t.Fatal(err)
	}
	sum := stmt.(*SelectStmt).Items[0].Expr.(*BinaryExpr).Left.(*FuncExpr)
	bound, safe := bindExpr(stmt.(*SelectStmt).Items[0].Expr, cols)
	if !safe || bound.(*BinaryExpr).Left != Expr(sum) {
		t.Fatalf("aggregate node was not kept in place (safe=%v)", safe)
	}
	env := &Env{cols: cols, vals: make([]Value, len(cols)), agg: map[Expr]Value{sum: NewInt(40)}}
	env.vals[1] = NewInt(2)
	if v, err := bound.Eval(env); err != nil || v != NewInt(42) {
		t.Fatalf("bound aggregate expression = %v, %v; want 42", v, err)
	}
}
