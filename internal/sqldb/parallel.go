package sqldb

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Morsel-driven execution.
//
// Every read operator (seq scan + filter, residual filter, hash-join build
// and probe, GROUP BY keys and per-group aggregates, projection, DISTINCT
// keys) is one loop over fixed-size morsels of its input, with one Env per
// morsel re-pointed at each row. Expressions are bound first (see binder):
// column references that resolve in the operator's own layout become
// positional loads, and what cannot be bound — an outer reference, a
// subquery, an aggregate call — stays in place and evaluates by name through
// the same Env, so correlated statements run the same loop.
//
// The only size-dependent decision is how many goroutines share the morsels
// (see fanOut). With several, morsels are handed out through an atomic
// counter to workers drawn from a bounded per-engine pool; the calling
// goroutine always takes part, so an exhausted pool degrades to one worker.
// Each morsel writes its own output buffer and buffers are concatenated in
// morsel order, so row order — and therefore every result, float sums
// included — does not depend on the worker count.

const (
	// morselSize is the number of rows handed to a worker at a time.
	morselSize = 1024
	// defaultParallelThreshold is the minimum input row count before an
	// operator shares its morsels among several workers.
	defaultParallelThreshold = 2048
)

// parallelConfig holds the engine's worker pool. slots has capacity
// workers-1: every statement brings its own goroutine and may borrow up to
// workers-1 extras, so total in-flight workers per statement never exceed
// the configured count while concurrent statements share the same pool.
type parallelConfig struct {
	mu        sync.Mutex
	workers   int
	threshold int
	slots     chan struct{}
}

// SetParallelism configures operator fan-out: workers is the maximum number
// of goroutines one operator may use, threshold the minimum input row count
// before it uses more than one. Neither selects code — every operator runs
// the same morsel loop at any setting. Zero values select the defaults
// (GOMAXPROCS workers, 2048-row threshold).
func (e *Engine) SetParallelism(workers, threshold int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if threshold <= 0 {
		threshold = defaultParallelThreshold
	}
	p := &e.par
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers = workers
	p.threshold = threshold
	p.slots = nil
	if workers > 1 {
		p.slots = make(chan struct{}, workers-1)
	}
}

// parallelism returns the current worker count, row threshold, and slot
// pool, applying defaults on first use.
func (e *Engine) parallelism() (workers, threshold int, slots chan struct{}) {
	p := &e.par
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.workers == 0 {
		p.workers = runtime.GOMAXPROCS(0)
		p.threshold = defaultParallelThreshold
		if p.workers > 1 {
			p.slots = make(chan struct{}, p.workers-1)
		}
	}
	return p.workers, p.threshold, p.slots
}

// fanOut is the read executor's one size-dependent decision: how many
// workers an operator over n input rows may use. Below the threshold it is
// one. At or above it the operator counts as a batch in the engine's parallel
// stats and gets the engine's workers — unless its expressions are not
// parallel-safe (a subquery or an outer reference, see binder), which pins it
// to the statement's own goroutine.
func (s *Session) fanOut(n int, parallelSafe bool) (workers int, slots chan struct{}) {
	w, threshold, sl := s.engine.parallelism()
	if n < threshold {
		return 1, nil
	}
	if !parallelSafe {
		w, sl = 1, nil
	}
	m := &s.engine.metrics
	m.parBatches.Add(1)
	m.parMorsels.Add(int64(chunkCount(n, morselSize)))
	m.parWorkers.ObserveValue(int64(w))
	return w, sl
}

// chunkCount returns how many chunk-sized pieces cover n items.
func chunkCount(n, chunk int) int {
	return (n + chunk - 1) / chunk
}

// runChunked partitions [0, n) into chunk-sized pieces and calls fn once per
// piece. With one worker the pieces run in order on the caller and the first
// error stops the loop. With more, up to workers-1 extra goroutines are
// claimed from the slot pool without blocking, pieces are handed out
// dynamically and the caller always participates; fn must then be safe to
// call concurrently for distinct indexes. The error returned is the
// lowest-indexed piece's — the one a single worker would have hit first.
func runChunked(slots chan struct{}, workers, n, chunk int, fn func(idx, start, end int) error) error {
	nc := chunkCount(n, chunk)
	if workers > nc {
		workers = nc
	}
	if workers <= 1 || slots == nil {
		for c := 0; c < nc; c++ {
			if err := fn(c, c*chunk, min(c*chunk+chunk, n)); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nc)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		// failed is read before a piece is claimed, never after: pieces are
		// claimed in index order, so every piece below a failed one is already
		// claimed and runs to completion, and the lowest error is found.
		for !failed.Load() {
			c := int(next.Add(1)) - 1
			if c >= nc {
				return
			}
			if errs[c] = fn(c, c*chunk, min(c*chunk+chunk, n)); errs[c] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers-1; i++ {
		select {
		case slots <- struct{}{}:
		default:
			i = workers // pool exhausted; run with what we have
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// morsels runs fn over [0, n) in morsel-sized pieces, handing each piece one
// Env over cols that fn re-points at successive rows. The Env carries outer
// and the session, so outer references and subqueries evaluate inside the
// same loop.
func (s *Session) morsels(n, workers int, slots chan struct{}, cols []envCol, outer *Env, fn func(env *Env, m, start, end int) error) error {
	return runChunked(slots, workers, n, morselSize, func(m, start, end int) error {
		return fn(&Env{cols: cols, outer: outer, sess: s}, m, start, end)
	})
}

// concatParts joins per-morsel output buffers in morsel order into one
// exact-size slice.
func concatParts(parts [][][]Value) [][]Value {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([][]Value, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// boundColRef is a column reference resolved to a positional index at bind
// time. Eval is a slice load — no name lookup, no allocation.
type boundColRef struct {
	idx  int
	orig *ColumnRef
}

func (b *boundColRef) Eval(env *Env) (Value, error) {
	return env.vals[b.idx], nil
}

func (b *boundColRef) String() string { return b.orig.String() }

// binder rewrites an operator's expressions against its column layout. It is
// best-effort per node: a column reference that resolves in cols becomes a
// boundColRef, and whatever cannot be bound stays in place and evaluates by
// name through the Env — a reference cols does not have (an outer reference,
// or an unknown column Lookup will report), an ambiguous bare name, a
// subquery, an aggregate call (its original pointer keys Env.agg). serial
// records whether anything was left that must stay on the statement's
// goroutine: subqueries execute through the session, and an unresolved
// reference may read an enclosing operator's Env.
type binder struct {
	cols   []envCol
	serial bool
}

// bindExpr binds one expression; parallelSafe is false when it holds a
// subquery or an outer reference.
func bindExpr(e Expr, cols []envCol) (bound Expr, parallelSafe bool) {
	b := binder{cols: cols}
	bound = b.bind(e)
	return bound, !b.serial
}

func (b *binder) bindAll(in []Expr) []Expr {
	out := make([]Expr, len(in))
	for i, e := range in {
		out[i] = b.bind(e)
	}
	return out
}

func (b *binder) bind(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		return x
	case *ColumnRef:
		idx, matches := resolveCol(b.cols, strings.ToLower(x.Table), strings.ToLower(x.Name))
		switch {
		case matches == 0:
			b.serial = true
			return x
		case matches > 1 && x.Table == "":
			return x
		}
		return &boundColRef{idx: idx, orig: x}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: b.bind(x.Left), Right: b.bind(x.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Operand: b.bind(x.Operand)}
	case *FuncExpr:
		if x.IsAggregate() {
			return x
		}
		return &FuncExpr{Name: x.Name, Args: b.bindAll(x.Args), Star: x.Star, Distinct: x.Distinct}
	case *InExpr:
		if x.Subquery != nil {
			b.serial = true
		}
		return &InExpr{Operand: b.bind(x.Operand), List: b.bindAll(x.List), Subquery: x.Subquery, Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{Operand: b.bind(x.Operand), Low: b.bind(x.Low), High: b.bind(x.High), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{Operand: b.bind(x.Operand), Pattern: b.bind(x.Pattern), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{Operand: b.bind(x.Operand), Not: x.Not}
	case *CaseExpr:
		out := &CaseExpr{Whens: make([]CaseWhen, len(x.Whens)), Else: b.bind(x.Else)}
		for i, w := range x.Whens {
			out.Whens[i] = CaseWhen{Cond: b.bind(w.Cond), Result: b.bind(w.Result)}
		}
		return out
	}
	// SubqueryExpr, and any node kind added without a case here.
	b.serial = true
	return e
}

// appendKeySegment appends one value to a composite hash key using the same
// length-prefixed encoding as writeKeySegment, but into a reusable byte
// buffer so a morsel does not allocate a strings.Builder per row.
func appendKeySegment(buf []byte, v Value) []byte {
	k := v.Key()
	buf = strconv.AppendInt(buf, int64(len(k)), 10)
	buf = append(buf, ':')
	return append(buf, k...)
}
