package sqldb

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Env is the name-resolution environment an expression evaluates against:
// one (possibly joined) row plus aggregate results when grouping.
type Env struct {
	cols []envCol
	vals []Value
	agg  map[Expr]Value // precomputed aggregate node values
	// outer allows correlated lookups from subqueries (unused by the
	// supported subquery forms but kept for resolution fallback).
	outer *Env
	// sess is the session evaluating this environment; subqueries execute
	// through it. Carrying the session here (instead of binding closures
	// into the AST) keeps parsed statements immutable, so sessions can
	// share them under the engine's read lock.
	sess *Session
}

// session returns the nearest session in the environment chain, or nil.
func (e *Env) session() *Session {
	for ; e != nil; e = e.outer {
		if e.sess != nil {
			return e.sess
		}
	}
	return nil
}

type envCol struct {
	table string // lower-case alias or table name; "" for computed columns
	name  string // lower-case column name
}

// NewEnv builds an environment from parallel column/value slices. Column
// names may be qualified ("alias.col") or bare.
func NewEnv(cols []string, vals []Value) *Env {
	env := &Env{vals: vals}
	for _, c := range cols {
		tbl, name := "", strings.ToLower(c)
		if i := strings.IndexByte(name, '.'); i >= 0 {
			tbl, name = name[:i], name[i+1:]
		}
		env.cols = append(env.cols, envCol{table: tbl, name: name})
	}
	return env
}

// resolveCol is the engine's one name-to-position rule over a column layout
// (table and name lower-case, table "" for a bare reference). It returns the
// first matching position and how many columns match; what a duplicate means
// is the caller's decision. Env.Lookup and the binder take the first match of
// a qualified name and reject an ambiguous bare one; the planner (uniqueCol)
// treats any duplicate as no match, which is what sends a self-join on
// same-named columns to the nested loop instead of the hash join.
func resolveCol(cols []envCol, table, name string) (idx, matches int) {
	idx = -1
	for i := range cols {
		if cols[i].name != name || (table != "" && cols[i].table != table) {
			continue
		}
		if matches == 0 {
			idx = i
		}
		matches++
	}
	return idx, matches
}

// Lookup resolves a column reference, returning an error for unknown or
// ambiguous names.
func (e *Env) Lookup(table, name string) (Value, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	idx, matches := resolveCol(e.cols, table, name)
	switch {
	case matches == 0:
		if e.outer != nil {
			return e.outer.Lookup(table, name)
		}
		if table != "" {
			return Value{}, fmt.Errorf("unknown column %q", table+"."+name)
		}
		return Value{}, fmt.Errorf("unknown column %q", name)
	case matches > 1 && table == "":
		return Value{}, fmt.Errorf("ambiguous column reference %q", name)
	}
	return e.vals[idx], nil
}

// Expr is an evaluable SQL expression.
type Expr interface {
	Eval(env *Env) (Value, error)
	String() string
}

// Literal is a constant value.
type Literal struct{ Val Value }

// Eval returns the constant.
func (l *Literal) Eval(*Env) (Value, error) { return l.Val, nil }

func (l *Literal) String() string { return l.Val.SQLLiteral() }

// ColumnRef references a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table string
	Name  string
}

// Eval resolves the column in the environment.
func (c *ColumnRef) Eval(env *Env) (Value, error) {
	if env == nil {
		return Value{}, fmt.Errorf("column %q referenced outside row context", c.Name)
	}
	return env.Lookup(c.Table, c.Name)
}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

// Eval implements SQL three-valued logic for comparisons and AND/OR and
// numeric promotion for arithmetic.
func (b *BinaryExpr) Eval(env *Env) (Value, error) {
	// AND/OR need lazy, three-valued evaluation.
	switch b.Op {
	case "AND":
		lv, err := b.Left.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsNull() && !lv.Truthy() {
			return NewBool(false), nil
		}
		rv, err := b.Right.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if !rv.IsNull() && !rv.Truthy() {
			return NewBool(false), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		return NewBool(true), nil
	case "OR":
		lv, err := b.Left.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if !lv.IsNull() && lv.Truthy() {
			return NewBool(true), nil
		}
		rv, err := b.Right.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if !rv.IsNull() && rv.Truthy() {
			return NewBool(true), nil
		}
		if lv.IsNull() || rv.IsNull() {
			return Null(), nil
		}
		return NewBool(false), nil
	}

	lv, err := b.Left.Eval(env)
	if err != nil {
		return Value{}, err
	}
	rv, err := b.Right.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if lv.IsNull() || rv.IsNull() {
		return Null(), nil
	}
	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		c, err := Compare(lv, rv)
		if err != nil {
			return Value{}, err
		}
		switch b.Op {
		case "=":
			return NewBool(c == 0), nil
		case "!=":
			return NewBool(c != 0), nil
		case "<":
			return NewBool(c < 0), nil
		case "<=":
			return NewBool(c <= 0), nil
		case ">":
			return NewBool(c > 0), nil
		default:
			return NewBool(c >= 0), nil
		}
	case "||":
		return NewText(lv.String() + rv.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, lv, rv)
	}
	return Value{}, fmt.Errorf("unsupported operator %q", b.Op)
}

func evalArith(op string, lv, rv Value) (Value, error) {
	if lv.Kind == KindInt && rv.Kind == KindInt {
		switch op {
		case "+":
			return NewInt(lv.I + rv.I), nil
		case "-":
			return NewInt(lv.I - rv.I), nil
		case "*":
			return NewInt(lv.I * rv.I), nil
		case "/":
			if rv.I == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			// Integer division truncates, like PostgreSQL.
			return NewInt(lv.I / rv.I), nil
		case "%":
			if rv.I == 0 {
				return Value{}, fmt.Errorf("division by zero")
			}
			return NewInt(lv.I % rv.I), nil
		}
	}
	lf, lok := lv.AsFloat()
	rf, rok := rv.AsFloat()
	if !lok || !rok {
		return Value{}, fmt.Errorf("operator %q requires numeric operands, got %s and %s", op, lv.Kind, rv.Kind)
	}
	switch op {
	case "+":
		return NewFloat(lf + rf), nil
	case "-":
		return NewFloat(lf - rf), nil
	case "*":
		return NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return NewFloat(lf / rf), nil
	case "%":
		if rf == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return NewFloat(math.Mod(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("unsupported arithmetic operator %q", op)
}

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op      string // "NOT" or "-"
	Operand Expr
}

// Eval evaluates the operand and applies the operator.
func (u *UnaryExpr) Eval(env *Env) (Value, error) {
	v, err := u.Operand.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	switch u.Op {
	case "NOT":
		return NewBool(!v.Truthy()), nil
	case "-":
		switch v.Kind {
		case KindInt:
			return NewInt(-v.I), nil
		case KindFloat:
			return NewFloat(-v.F), nil
		}
		return Value{}, fmt.Errorf("unary minus requires a numeric operand, got %s", v.Kind)
	}
	return Value{}, fmt.Errorf("unsupported unary operator %q", u.Op)
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "NOT " + u.Operand.String()
	}
	return u.Op + u.Operand.String()
}

// FuncExpr is a function call: scalar (UPPER, ABS, ...) or aggregate
// (COUNT, SUM, AVG, MIN, MAX).
type FuncExpr struct {
	Name     string // upper-case
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// IsAggregate reports whether the function is an aggregate.
func (f *FuncExpr) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// Eval evaluates scalar functions directly; aggregate nodes read their
// precomputed per-group value from the environment.
func (f *FuncExpr) Eval(env *Env) (Value, error) {
	if f.IsAggregate() {
		if env != nil && env.agg != nil {
			if v, ok := env.agg[f]; ok {
				return v, nil
			}
		}
		return Value{}, fmt.Errorf("aggregate %s used outside aggregation context", f.Name)
	}
	args := make([]Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(env)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return evalScalarFunc(f.Name, args)
}

func evalScalarFunc(name string, args []Value) (Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "UPPER":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewText(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewText(strings.ToLower(args[0].String())), nil
	case "LENGTH":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		// Character count, not byte count: LENGTH('héllo') is 5, matching
		// the PostgreSQL semantics the evaluator follows elsewhere.
		return NewInt(int64(utf8.RuneCountInString(args[0].String()))), nil
	case "ABS":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		v := args[0]
		switch v.Kind {
		case KindNull:
			return Null(), nil
		case KindInt:
			if v.I < 0 {
				return NewInt(-v.I), nil
			}
			return v, nil
		case KindFloat:
			return NewFloat(math.Abs(v.F)), nil
		}
		return Value{}, fmt.Errorf("ABS requires a numeric argument")
	case "ROUND":
		if len(args) == 0 || len(args) > 2 {
			return Value{}, fmt.Errorf("ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		fv, ok := args[0].AsFloat()
		if !ok {
			return Value{}, fmt.Errorf("ROUND requires a numeric argument")
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].Kind != KindInt {
				return Value{}, fmt.Errorf("ROUND digits must be an integer")
			}
			digits = args[1].I
		}
		p := math.Pow(10, float64(digits))
		return NewFloat(math.Round(fv*p) / p), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return Value{}, fmt.Errorf("%s expects 2 or 3 arguments", name)
		}
		// NULL in any argument yields NULL (PostgreSQL); a non-integer
		// start or length is an error, never silently read as 0.
		if args[0].IsNull() || args[1].IsNull() || (len(args) == 3 && args[2].IsNull()) {
			return Null(), nil
		}
		if args[1].Kind != KindInt {
			return Value{}, fmt.Errorf("%s start must be an integer, got %s", name, args[1].Kind)
		}
		r := []rune(args[0].String()) // slice by characters, never mid-rune
		start := int(args[1].I) - 1   // SQL is 1-based; may be negative
		end := len(r)
		if len(args) == 3 {
			if args[2].Kind != KindInt {
				return Value{}, fmt.Errorf("%s length must be an integer, got %s", name, args[2].Kind)
			}
			if args[2].I < 0 {
				return Value{}, fmt.Errorf("negative substring length not allowed")
			}
			// The window is [start, start+length) before clamping, so a
			// negative start consumes length before the first character,
			// matching PostgreSQL: SUBSTR('abc', -1, 3) = 'a'.
			end = start + int(args[2].I)
		}
		if end < 0 {
			end = 0
		} else if end > len(r) {
			end = len(r)
		}
		if start < 0 {
			start = 0
		} else if start > len(r) {
			start = len(r)
		}
		if end < start {
			end = start
		}
		return NewText(string(r[start:end])), nil
	case "TRIM":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewText(strings.TrimSpace(args[0].String())), nil
	case "SQRT":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		fv, ok := args[0].AsFloat()
		if !ok || fv < 0 {
			return Value{}, fmt.Errorf("SQRT requires a non-negative numeric argument")
		}
		return NewFloat(math.Sqrt(fv)), nil
	}
	return Value{}, fmt.Errorf("unknown function %s", name)
}

func (f *FuncExpr) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	inner := strings.Join(parts, ", ")
	if f.Distinct {
		inner = "DISTINCT " + inner
	}
	return f.Name + "(" + inner + ")"
}

// InExpr is `operand [NOT] IN (list)` or `operand [NOT] IN (SELECT ...)`.
type InExpr struct {
	Operand  Expr
	List     []Expr
	Subquery *SubqueryExpr
	Not      bool
}

// Eval checks membership with SQL NULL semantics (NULL operand → NULL).
func (in *InExpr) Eval(env *Env) (Value, error) {
	v, err := in.Operand.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return Null(), nil
	}
	var candidates []Value
	if in.Subquery != nil {
		rows, err := in.Subquery.evalRows(env)
		if err != nil {
			return Value{}, err
		}
		candidates = rows
	} else {
		for _, e := range in.List {
			cv, err := e.Eval(env)
			if err != nil {
				return Value{}, err
			}
			candidates = append(candidates, cv)
		}
	}
	sawNull := false
	for _, cv := range candidates {
		if cv.IsNull() {
			sawNull = true
			continue
		}
		if c, err := Compare(v, cv); err == nil && c == 0 {
			return NewBool(!in.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return NewBool(in.Not), nil
}

func (in *InExpr) String() string {
	op := " IN "
	if in.Not {
		op = " NOT IN "
	}
	if in.Subquery != nil {
		// The subquery renders with its own parentheses; doubling them
		// would parse back as a one-element scalar list.
		return in.Operand.String() + op + in.Subquery.String()
	}
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return in.Operand.String() + op + "(" + strings.Join(parts, ", ") + ")"
}

// BetweenExpr is `operand [NOT] BETWEEN low AND high`.
type BetweenExpr struct {
	Operand Expr
	Low     Expr
	High    Expr
	Not     bool
}

// Eval evaluates the range test.
func (b *BetweenExpr) Eval(env *Env) (Value, error) {
	v, err := b.Operand.Eval(env)
	if err != nil {
		return Value{}, err
	}
	lo, err := b.Low.Eval(env)
	if err != nil {
		return Value{}, err
	}
	hi, err := b.High.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null(), nil
	}
	cl, err := Compare(v, lo)
	if err != nil {
		return Value{}, err
	}
	ch, err := Compare(v, hi)
	if err != nil {
		return Value{}, err
	}
	in := cl >= 0 && ch <= 0
	if b.Not {
		in = !in
	}
	return NewBool(in), nil
}

func (b *BetweenExpr) String() string {
	op := " BETWEEN "
	if b.Not {
		op = " NOT BETWEEN "
	}
	return b.Operand.String() + op + b.Low.String() + " AND " + b.High.String()
}

// LikeExpr is `operand [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	Operand Expr
	Pattern Expr
	Not     bool
}

// Eval evaluates the pattern match.
func (l *LikeExpr) Eval(env *Env) (Value, error) {
	v, err := l.Operand.Eval(env)
	if err != nil {
		return Value{}, err
	}
	p, err := l.Pattern.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || p.IsNull() {
		return Null(), nil
	}
	m := likeMatch(v.String(), p.String())
	if l.Not {
		m = !m
	}
	return NewBool(m), nil
}

func (l *LikeExpr) String() string {
	op := " LIKE "
	if l.Not {
		op = " NOT LIKE "
	}
	return l.Operand.String() + op + l.Pattern.String()
}

// likeMatch implements SQL LIKE: % matches any run, _ one character.
// Matching is case-sensitive like PostgreSQL, and operates on characters:
// `_` consumes one CHARACTER, not one byte, so multi-byte UTF-8 input
// matches the way PostgreSQL matches it ('é' LIKE '_' is true), and `%`
// backtracking can never resynchronize in the middle of a rune. All-ASCII
// inputs — the common case on a LIKE-filtered scan — take an allocation-free
// byte-wise path where bytes and characters coincide.
func likeMatch(s, pattern string) bool {
	if asciiOnly(s) && asciiOnly(pattern) {
		return likeMatchASCII(s, pattern)
	}
	rs, rp := []rune(s), []rune(pattern)
	// Iterative two-pointer algorithm with backtracking on %.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(rs) {
		switch {
		case pi < len(rp) && (rp[pi] == '_' || rp[pi] == rs[si]):
			si++
			pi++
		case pi < len(rp) && rp[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(rp) && rp[pi] == '%' {
		pi++
	}
	return pi == len(rp)
}

func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// likeMatchASCII is the byte-wise algorithm, valid when one byte is one
// character.
func likeMatchASCII(s, pattern string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// IsNullExpr is `operand IS [NOT] NULL`.
type IsNullExpr struct {
	Operand Expr
	Not     bool
}

// Eval evaluates the null test (never returns NULL itself).
func (n *IsNullExpr) Eval(env *Env) (Value, error) {
	v, err := n.Operand.Eval(env)
	if err != nil {
		return Value{}, err
	}
	if n.Not {
		return NewBool(!v.IsNull()), nil
	}
	return NewBool(v.IsNull()), nil
}

func (n *IsNullExpr) String() string {
	if n.Not {
		return n.Operand.String() + " IS NOT NULL"
	}
	return n.Operand.String() + " IS NULL"
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN cond THEN result arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Eval returns the first matching arm's result, the ELSE value, or NULL.
func (c *CaseExpr) Eval(env *Env) (Value, error) {
	for _, w := range c.Whens {
		cv, err := w.Cond.Eval(env)
		if err != nil {
			return Value{}, err
		}
		if !cv.IsNull() && cv.Truthy() {
			return w.Result.Eval(env)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(env)
	}
	return Null(), nil
}

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SubqueryExpr wraps a scalar or IN-list subquery. It executes through the
// session carried by the evaluation environment, so the node itself stays
// immutable and shareable across sessions.
type SubqueryExpr struct {
	Query *SelectStmt
}

// Eval evaluates the subquery as a scalar: first column of the single row,
// NULL when empty.
func (s *SubqueryExpr) Eval(env *Env) (Value, error) {
	rows, err := s.rows(env)
	if err != nil {
		return Value{}, err
	}
	if len(rows) == 0 {
		return Null(), nil
	}
	if len(rows) > 1 {
		return Value{}, fmt.Errorf("scalar subquery returned %d rows", len(rows))
	}
	if len(rows[0]) != 1 {
		return Value{}, fmt.Errorf("scalar subquery must return one column")
	}
	return rows[0][0], nil
}

// evalRows returns the first column of every row, for IN (SELECT ...).
func (s *SubqueryExpr) evalRows(env *Env) ([]Value, error) {
	rows, err := s.rows(env)
	if err != nil {
		return nil, err
	}
	out := make([]Value, 0, len(rows))
	for _, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("IN subquery must return one column")
		}
		out = append(out, r[0])
	}
	return out, nil
}

func (s *SubqueryExpr) rows(env *Env) ([][]Value, error) {
	sess := env.session()
	if sess == nil {
		return nil, fmt.Errorf("subquery evaluated outside executor context")
	}
	r, err := sess.execSelect(s.Query, env)
	if err != nil {
		return nil, err
	}
	return r.Rows, nil
}

func (s *SubqueryExpr) String() string { return "(" + RenderSelect(s.Query) + ")" }
