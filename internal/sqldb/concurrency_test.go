package sqldb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReaders exercises the shared-lock read path: many sessions
// issuing SELECTs at once, over tables, indexes, views, and subqueries.
// Run with -race; view scans in particular used to share one AST.
func TestConcurrentReaders(t *testing.T) {
	e := NewEngine("conc")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, val REAL)`)
	root.MustExec(`CREATE INDEX idx_grp ON t (grp)`)
	for i := 0; i < 200; i++ {
		root.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %f)", i, i%10, float64(i)))
	}
	root.MustExec(`CREATE VIEW low AS SELECT id, val FROM t WHERE grp < 3`)

	queries := []string{
		"SELECT COUNT(*) FROM t WHERE grp = 4",
		"SELECT id FROM t WHERE id = 17",
		"SELECT COUNT(*) FROM low",
		"SELECT grp, AVG(val) FROM t GROUP BY grp ORDER BY grp",
		"SELECT COUNT(*) FROM t WHERE val > (SELECT AVG(val) FROM t)",
		"EXPLAIN SELECT id FROM t WHERE grp = 2",
	}

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < rounds; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := s.Exec(q); err != nil {
					errs <- fmt.Errorf("worker %d: %q: %v", w, q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentMixedTraffic runs parallel sessions issuing mixed
// SELECT/INSERT traffic and asserts the final state is exactly the sum of
// all writes, and that every read observed a consistent prefix.
func TestConcurrentMixedTraffic(t *testing.T) {
	e := NewEngine("mixed")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE log (id INT PRIMARY KEY, writer INT, seq INT)`)
	root.MustExec(`CREATE INDEX idx_writer ON log (writer)`)

	const writers = 4
	const readers = 6
	const perWriter = 100
	var wg sync.WaitGroup
	var bad atomic.Int64
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO log VALUES (%d, %d, %d)", id, w, i)); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession("root")
			prev := int64(-1)
			for i := 0; i < 80; i++ {
				res, err := s.Exec(fmt.Sprintf("SELECT COUNT(*) FROM log WHERE writer = %d", r%writers))
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				n := res.Rows[0][0].I
				// Counts are monotone per writer: inserts only.
				if n < prev || n > perWriter {
					bad.Add(1)
				}
				prev = n
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if bad.Load() != 0 {
		t.Errorf("%d inconsistent reads observed", bad.Load())
	}
	total := root.MustExec("SELECT COUNT(*) FROM log").Rows[0][0].I
	if total != writers*perWriter {
		t.Fatalf("final count = %d, want %d", total, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		n := root.MustExec(fmt.Sprintf("SELECT COUNT(*) FROM log WHERE writer = %d", w)).Rows[0][0].I
		if n != perWriter {
			t.Fatalf("writer %d persisted %d rows, want %d", w, n, perWriter)
		}
	}
}

// TestConcurrentTransactions mixes transactional writers (some rolling
// back) with readers; committed effects must all land, rolled-back ones
// must not.
func TestConcurrentTransactions(t *testing.T) {
	e := NewEngine("txn")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`)
	root.MustExec(`INSERT INTO acct VALUES (1, 1000), (2, 1000)`)

	const movers = 4
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, movers+1)
	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < rounds; i++ {
				// Concurrent movers write the same two rows, so under
				// snapshot isolation a round can abort with a retryable
				// serialization error; retry the whole transaction (the
				// documented write-conflict contract).
			retry:
				for {
					script := []string{
						"BEGIN",
						"UPDATE acct SET bal = bal - 10 WHERE id = 1",
						"UPDATE acct SET bal = bal + 10 WHERE id = 2",
					}
					for _, q := range script {
						if _, err := s.Exec(q); err != nil {
							if IsRetryable(err) {
								if _, rerr := s.Exec("ROLLBACK"); rerr != nil {
									errs <- fmt.Errorf("mover %d: rollback after conflict: %v", m, rerr)
									return
								}
								continue retry
							}
							errs <- fmt.Errorf("mover %d: %q: %v", m, q, err)
							return
						}
					}
					final := "COMMIT"
					if i%2 == 1 {
						final = "ROLLBACK"
					}
					if _, err := s.Exec(final); err != nil {
						errs <- fmt.Errorf("mover %d: %s: %v", m, final, err)
						return
					}
					break
				}
			}
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := e.NewSession("root")
		for i := 0; i < 60; i++ {
			res, err := s.Exec("SELECT SUM(bal) FROM acct")
			if err != nil {
				errs <- fmt.Errorf("auditor: %v", err)
				return
			}
			// Under snapshot isolation the auditor's statement snapshot
			// sees both legs of every transfer or neither: the total is
			// invariantly 2000. (Before MVCC a reader could legally observe
			// the mid-transfer state, total-10.)
			got := res.Rows[0][0].I
			if got != 2000 {
				errs <- fmt.Errorf("auditor saw torn total %d, want 2000", got)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	b1 := root.MustExec("SELECT bal FROM acct WHERE id = 1").Rows[0][0].I
	b2 := root.MustExec("SELECT bal FROM acct WHERE id = 2").Rows[0][0].I
	// Rounds alternate commit/rollback starting with commit; with rounds
	// odd, commit rounds = ceil(rounds/2).
	committed := int64(movers*((rounds+1)/2)) * 10
	if b1 != 1000-committed || b2 != 1000+committed {
		t.Fatalf("balances (%d, %d) do not reflect %d committed transfers", b1, b2, committed)
	}
}

// TestConcurrentCachedSelectWithDML hammers the plan cache from parallel
// readers (all sharing a handful of hot SQL strings, so most executions are
// cache hits under the read lock) while writers run planner-driven
// UPDATE/DELETE/INSERT and a DDL goroutine repeatedly bumps the catalog
// version, invalidating every cached plan mid-flight. Run with -race.
func TestConcurrentCachedSelectWithDML(t *testing.T) {
	e := NewEngine("cachedmix")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)`)
	root.MustExec(`CREATE INDEX idx_grp ON t (grp)`)
	for i := 0; i < 300; i++ {
		root.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", i, i%10))
	}

	hot := []string{
		"SELECT COUNT(*) FROM t WHERE grp = 4",
		"SELECT COUNT(*) FROM t",
		"SELECT val FROM t WHERE id = 17",
	}

	const readers = 6
	const writers = 3
	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < rounds; i++ {
				q := hot[(r+i)%len(hot)]
				res, err := s.Exec(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %q: %v", r, q, err)
					return
				}
				if len(res.Rows) == 0 {
					errs <- fmt.Errorf("reader %d: %q returned no rows", r, q)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < rounds; i++ {
				// Fixed SQL so the write plans are cache hits too.
				script := []string{
					"UPDATE t SET val = val + 1 WHERE grp = 4",
					fmt.Sprintf("DELETE FROM t WHERE id = %d", 1000+w*rounds+i),
					fmt.Sprintf("INSERT INTO t VALUES (%d, 4, 0)", 1000+w*rounds+i),
				}
				for _, q := range script {
					if _, err := s.Exec(q); err != nil {
						errs <- fmt.Errorf("writer %d: %q: %v", w, q, err)
						return
					}
				}
			}
		}(w)
	}
	// The invalidator: DDL churn bumps the catalog version so readers and
	// writers constantly fall off the cache and re-plan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := e.NewSession("root")
		for i := 0; i < 20; i++ {
			if _, err := s.Exec(fmt.Sprintf("CREATE TABLE churn%d (x INT)", i)); err != nil {
				errs <- fmt.Errorf("ddl: %v", err)
				return
			}
			if _, err := s.Exec(fmt.Sprintf("DROP TABLE churn%d", i)); err != nil {
				errs <- fmt.Errorf("ddl: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every writer inserts one extra grp-4 row per round (delete precedes
	// its own insert, so all survive).
	base := int64(30) // 300 seeded rows, ids ending in grp 4
	want := base + writers*rounds
	if n := root.MustExec("SELECT COUNT(*) FROM t WHERE grp = 4").Rows[0][0].I; n != want {
		t.Fatalf("grp-4 rows = %d, want %d", n, want)
	}
	hits, misses := e.PlanCacheStats()
	if hits == 0 {
		t.Fatalf("expected cache hits under hot traffic (hits=%d misses=%d)", hits, misses)
	}
}

// TestConcurrentDirectGrants mutates privileges through Engine.Grants()
// (no engine lock, the documented fixture/toolkit path) while sessions
// execute statements whose privilege checks read the same store; Grants
// synchronizes itself. Run with -race.
func TestConcurrentDirectGrants(t *testing.T) {
	e := NewEngine("grants")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, x INT)`)
	root.MustExec(`INSERT INTO t VALUES (1, 10), (2, 20)`)

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.NewSession("alice")
			for i := 0; i < 100; i++ {
				_, err := s.Exec("SELECT COUNT(*) FROM t")
				// Denials are expected mid-revoke; anything else is not.
				var pe *PermissionError
				if err != nil && !errors.As(err, &pe) {
					errs <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			e.Grants().Grant("alice", ActionSelect, "t")
			e.Grants().GrantColumns("alice", ActionSelect, "t", []string{"id", "x"})
			e.Grants().Revoke("alice", ActionSelect, "t")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSharedStmtConcurrentExec executes one parsed statement (with a
// subquery) from many sessions at once. Statement trees must be immutable
// during execution: subqueries run through Env.sess, not closures written
// into the shared AST.
func TestSharedStmtConcurrentExec(t *testing.T) {
	e := NewEngine("shared")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT)`)
	for i := 0; i < 50; i++ {
		root.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%5))
	}
	stmt, err := Parse("SELECT COUNT(*) FROM t WHERE grp IN (SELECT grp FROM t WHERE id < 10)")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession("root")
			for i := 0; i < 30; i++ {
				r, err := s.ExecStmt(stmt)
				if err != nil {
					errs <- err
					return
				}
				if r.Rows[0][0].I != 50 {
					errs <- fmt.Errorf("got %d rows, want 50", r.Rows[0][0].I)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestObjectDDLConcurrentWithDDL reads remembered definitions from several
// goroutines while another changes the catalog (ADD COLUMN, DROP and
// re-CREATE, a rolled-back DROP) and a fourth changes grants, which moves the
// catalog version without the engine lock. A reader must never see a
// definition older than one it has already seen grow, and once the writers
// stop every object reads as a fresh render. Run with -race.
func TestObjectDDLConcurrentWithDDL(t *testing.T) {
	e := NewEngine("ddl")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE wide (id INT PRIMARY KEY)`)
	root.MustExec(`CREATE TABLE flip (id INT PRIMARY KEY)`)
	root.MustExec(`CREATE VIEW v AS SELECT id FROM wide`)

	const columns = 40
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			longest := 0
			for !stop.Load() {
				ddl, ok := e.ObjectDDL("WIDE")
				if !ok {
					t.Error("wide disappeared")
					return
				}
				if len(ddl) < longest {
					t.Errorf("definition went back in time:\n%s", ddl)
					return
				}
				longest = len(ddl)
				e.ObjectDDL("flip")
				e.ObjectDDL("v")
				e.ObjectDDL("missing")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			e.Grants().Grant("u", ActionSelect, "wide")
			e.Grants().Revoke("u", ActionSelect, "wide")
		}
	}()
	for i := 0; i < columns; i++ {
		root.MustExec(fmt.Sprintf(`ALTER TABLE wide ADD COLUMN c%d INT`, i))
		root.MustExec(`DROP TABLE flip`)
		root.MustExec(fmt.Sprintf(`CREATE TABLE flip (id INT PRIMARY KEY, gen%d TEXT)`, i))
		root.MustExec(`BEGIN`)
		root.MustExec(`DROP TABLE flip`)
		root.MustExec(`ROLLBACK`)
	}
	stop.Store(true)
	wg.Wait()

	for _, name := range []string{"wide", "flip"} {
		tab, _ := e.Table(name)
		if got, _ := e.ObjectDDL(name); got != SchemaSQL(tab) {
			t.Errorf("%s: remembered definition is stale:\n%s\nfresh:\n%s", name, got, SchemaSQL(tab))
		}
	}
	view, _ := e.ViewByName("v")
	if got, _ := e.ObjectDDL("v"); got != ViewSQL(view) {
		t.Errorf("view definition: %s", got)
	}
	if _, ok := e.ObjectDDL("missing"); ok {
		t.Error("an object that does not exist has a definition")
	}
}
