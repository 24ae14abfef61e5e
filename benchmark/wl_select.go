package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/task"
)

// Sizes of select_scan. small stays below defaultParallelThreshold (2,048 in
// internal/sqldb/parallel.go), so its aggregates take the row-at-a-time path;
// orders and customers are far above it and take the batched/parallel path.
const (
	defaultOrders    = 100_000
	defaultCustomers = 10_000
	smallRows        = 1_500
	orderDays        = 365
	smallGroups      = 20
)

// Sessions per pass by class. Sorted by task time the classes lie at
// 0-40% (lookups), 40-65% (aggregates over small), 65-80% (scan + filter +
// group-by over orders) and 80-100% (hash join + top-k), so the p50 rank
// falls inside "aggregates over small" and the p90 rank inside "join", each
// at least 10 percentile points from a class boundary.
const (
	lookupSessions = 48
	smallSessions  = 30
	scanSessions   = 18
	joinSessions   = 24
)

// selectScan is read-only analysis sessions through the select tool on an
// in-memory engine. Statements come from a pool of 40 texts, far below the
// plan cache's 256 slots, so after the warm-up pass every statement is a
// plan-cache hit and parse, plan and ClassifySQL are small: the executor does
// the work, the row-at-a-time path at the median and the batched/parallel
// path at p90.
type selectScan struct {
	orders, customers int // rows

	engine   *sqldb.Engine
	sessions []selectSession
	// reference is each session's result-text hash from the warm-up pass;
	// every later pass must reproduce it.
	reference []uint64
}

type selectSession struct {
	task   *task.Task
	model  *scripted
	expect []string // per call: the expected second line of the result, "" = unchecked
}

// stmt is one statement of the pool with the answer computed in Go.
type stmt struct{ sql, expect string }

func (w *selectScan) numTasks() int { return len(w.sessions) }

func (w *selectScan) describe() (string, string) {
	return fmt.Sprintf("orders %d rows (day indexed), customers %d, small %d; %d sessions/pass: %d lookup (2 calls), %d small-aggregate (4 calls), %d scan+group-by (1 call), %d join+top-k (1 call); pool of 40 statement texts",
			w.orders, w.customers, smallRows, lookupSessions+smallSessions+scanSessions+joinSessions,
			lookupSessions, smallSessions, scanSessions, joinSessions),
		"in-memory engine, no WAL"
}

func (w *selectScan) setup(seed int64, dir string) error {
	rng := rand.New(rand.NewSource(seed))
	e := sqldb.NewEngine("select_scan")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name TEXT NOT NULL, region TEXT, tier INT)`)
	root.MustExec(`CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, day INT, qty INT, amount REAL, status TEXT)`)
	root.MustExec(`CREATE TABLE small (id INT PRIMARY KEY, grp INT, qty INT, val REAL)`)

	regions := []string{"north", "south", "east", "west", "centre", "coast", "hills", "plains"}
	statuses := []string{"open", "paid", "shipped", "returned"}
	bulkInsert(root, "customers", w.customers, func(i int) string {
		return fmt.Sprintf("(%d, 'Customer %05d', '%s', %d)", i, i, regions[rng.Intn(len(regions))], 1+rng.Intn(3))
	})
	// The seed decides which order gets which day, amount and customer, not
	// how many orders a day, an amount range or a customer has: every filter
	// selects the same number of rows under every seed, so the work of a
	// pass, and with it time and allocation, does not wander with the seed.
	dayOf, amountOf, customerOf := deck(rng, w.orders, orderDays), deck(rng, w.orders, w.orders), deck(rng, w.orders, w.customers)
	// Kept in Go to compute the answers the engine must give.
	dayCount := make([]int, orderDays+2)
	dayQty := make([]int, orderDays+2)
	bulkInsert(root, "orders", w.orders, func(i int) string {
		day, qty := 1+dayOf[i-1], 1+rng.Intn(9)
		dayCount[day]++
		dayQty[day] += qty
		amount := (float64(amountOf[i-1]) + rng.Float64()) * 1000 / float64(w.orders)
		return fmt.Sprintf("(%d, %d, %d, %d, %.2f, '%s')", i, 1+customerOf[i-1], day, qty, amount, statuses[rng.Intn(len(statuses))])
	})
	grpOf := deck(rng, smallRows, smallGroups)
	grpCount := make([]int, smallGroups)
	grpQty := make([]int, smallGroups)
	bulkInsert(root, "small", smallRows, func(i int) string {
		grp, qty := grpOf[i-1], 1+rng.Intn(9)
		grpCount[grp]++
		grpQty[grp] += qty
		return fmt.Sprintf("(%d, %d, %d, %.3f)", i, grp, qty, rng.Float64()*100)
	})
	root.MustExec(`CREATE INDEX idx_orders_day ON orders (day)`)
	for _, t := range []string{"customers", "orders", "small"} {
		e.Grants().Grant("analyst", sqldb.ActionSelect, t)
	}
	w.engine = e

	// The pool: 16 lookup texts in four kinds, 8 per other class. Lookup
	// keys come from the seed; the filter constants of the heavy statements
	// are fixed, and sessions take statements from the pools in turn, so the
	// work in a pass does not depend on the seed, only the data does.
	var points, days, small, scan, join []stmt
	for i := 0; i < 4; i++ {
		points = append(points,
			stmt{sql: fmt.Sprintf("SELECT id, customer_id, day, qty, amount FROM orders WHERE id = %d", 1+rng.Intn(w.orders))},
			stmt{sql: fmt.Sprintf("SELECT name, region, tier FROM customers WHERE id = %d", 1+rng.Intn(w.customers))})
		d := 1 + rng.Intn(orderDays-2)
		days = append(days,
			stmt{
				sql:    fmt.Sprintf("SELECT COUNT(*), SUM(qty) FROM orders WHERE day = %d", d),
				expect: fmt.Sprintf("%d | %d", dayCount[d], dayQty[d])},
			stmt{
				sql:    fmt.Sprintf("SELECT COUNT(*), SUM(qty) FROM orders WHERE day BETWEEN %d AND %d", d, d+2),
				expect: fmt.Sprintf("%d | %d", dayCount[d]+dayCount[d+1]+dayCount[d+2], dayQty[d]+dayQty[d+1]+dayQty[d+2])})
	}
	small = append(small, stmt{sql: "SELECT grp, COUNT(*), SUM(qty) FROM small GROUP BY grp ORDER BY grp"})
	for i := 0; i < 4; i++ {
		g := rng.Intn(smallGroups)
		small = append(small, stmt{
			sql:    fmt.Sprintf("SELECT COUNT(*), SUM(qty) FROM small WHERE grp = %d", g),
			expect: fmt.Sprintf("%d | %d", grpCount[g], grpQty[g])})
	}
	for i := 0; i < 3; i++ {
		small = append(small, stmt{sql: fmt.Sprintf("SELECT AVG(val), MAX(val), COUNT(*) FROM small WHERE qty > %d", 3+i)})
	}
	for i := 0; i < 4; i++ {
		scan = append(scan,
			stmt{sql: fmt.Sprintf("SELECT status, COUNT(*), SUM(qty) FROM orders WHERE amount > %d GROUP BY status ORDER BY status", 485+10*i)},
			stmt{sql: fmt.Sprintf("SELECT qty, COUNT(*), AVG(amount) FROM orders WHERE amount < %d GROUP BY qty ORDER BY qty", 485+10*i)})
	}
	for i := 0; i < 8; i++ {
		// The newest fifth of the year: about 20,000 orders reach the join.
		join = append(join, stmt{sql: fmt.Sprintf(
			"SELECT customers.name, customers.region, orders.amount FROM orders JOIN customers ON orders.customer_id = customers.id WHERE orders.day >= %d ORDER BY orders.amount DESC LIMIT 10",
			290+i)})
	}

	w.sessions = w.sessions[:0]
	add := func(class string, n int, build func(i int) []stmt) {
		for i := 0; i < n; i++ {
			stmts := build(i)
			calls := make([]llm.ToolCall, len(stmts))
			expect := make([]string, len(stmts))
			for j, s := range stmts {
				calls[j] = call("select", s.sql)
				expect[j] = s.expect
			}
			w.sessions = append(w.sessions, selectSession{
				task:   sessionTask(fmt.Sprintf("select-%s-%02d", class, i), "Answer the analyst's "+class+" questions from the order database."),
				model:  &scripted{turns: [][]llm.ToolCall{calls}, final: "Reported the " + class + " figures."},
				expect: expect,
			})
		}
	}
	add("lookup", lookupSessions, func(i int) []stmt { return []stmt{points[i%8], days[(i/2)%8]} })
	add("small", smallSessions, func(i int) []stmt {
		return []stmt{small[0], small[1+i%4], small[1+(i+1)%4], small[5+i%3]}
	})
	add("scan", scanSessions, func(i int) []stmt { return []stmt{scan[i%8]} })
	add("join", joinSessions, func(i int) []stmt { return []stmt{join[i%8]} })
	rng.Shuffle(len(w.sessions), func(i, j int) { w.sessions[i], w.sessions[j] = w.sessions[j], w.sessions[i] })
	w.reference = make([]uint64, len(w.sessions))
	return nil
}

// deck returns n cards, card i showing i%m, shuffled: every value comes up
// equally often (to within one) whatever the seed.
func deck(rng *rand.Rand, n, m int) []int {
	cards := make([]int, n)
	for i := range cards {
		cards[i] = i % m
	}
	rng.Shuffle(n, func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	return cards
}

func (w *selectScan) prepare(pass, i int) *prepared {
	s := &w.sessions[i]
	return &prepared{
		conn:   core.NewSQLDBConn(w.engine, "analyst"),
		engine: w.engine,
		task:   s.task,
		model:  s.model,
		check: func(o *outcome) (bool, []string) {
			var problems []string
			if !o.met.Completed || len(o.calls) != len(s.expect) {
				problems = append(problems, fmt.Sprintf("%s: completed=%v with %d of %d calls", s.task.ID, o.met.Completed, len(o.calls), len(s.expect)))
			}
			h := fnv.New64a()
			for j, c := range o.calls {
				_, _ = h.Write([]byte(c.text))
				_, _ = h.Write([]byte{0})
				if c.isErr {
					problems = append(problems, fmt.Sprintf("%s call %d failed: %s", s.task.ID, j, c.text))
					continue
				}
				if j < len(s.expect) && s.expect[j] != "" {
					if secondLine(c.text) != s.expect[j] {
						problems = append(problems, fmt.Sprintf("%s call %d answered %q, the generator computed %q", s.task.ID, j, c.text, s.expect[j]))
					}
				}
			}
			if sum := h.Sum64(); w.reference[i] == 0 {
				w.reference[i] = sum
			} else if w.reference[i] != sum {
				problems = append(problems, fmt.Sprintf("%s: result texts differ from the warm-up pass", s.task.ID))
			}
			return len(problems) == 0, problems
		},
	}
}

func (w *selectScan) endPass(pass int, agg *engineAgg) []string { return nil }

func (w *selectScan) finish() ([]string, map[string]float64) { return nil, nil }

func (w *selectScan) teardown() { w.engine, w.sessions = nil, nil }
