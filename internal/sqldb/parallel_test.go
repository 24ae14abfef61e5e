package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// newParallelEngine builds an engine with aggressive parallel settings (4
// workers, 64-row threshold so modest test tables exercise the morsel paths)
// and two randomized tables.
func newParallelEngine(t testing.TB, seed int64) *Engine {
	t.Helper()
	e := NewEngine("partest")
	e.SetParallelism(4, 64)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE t1 (id INT PRIMARY KEY, grp INT, val REAL, name TEXT)")
	s.MustExec("CREATE TABLE t2 (id INT PRIMARY KEY, grp INT, tag TEXT)")
	rng := rand.New(rand.NewSource(seed))
	names := []string{"'alpha'", "'beta'", "'gamma'", "'delta'", "NULL"}
	tags := []string{"'x'", "'y'", "'z'", "NULL"}
	insertBatch(s, "t1", 3000, func(i int) string {
		return fmt.Sprintf("(%d, %d, %g, %s)", i, rng.Intn(20), float64(rng.Intn(10000))/10, names[rng.Intn(len(names))])
	})
	insertBatch(s, "t2", 500, func(i int) string {
		return fmt.Sprintf("(%d, %d, %s)", i, rng.Intn(20), tags[rng.Intn(len(tags))])
	})
	return e
}

func insertBatch(s *Session, table string, n int, row func(i int) string) {
	const batch = 500
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		vals := make([]string, 0, end-start)
		for i := start; i < end; i++ {
			vals = append(vals, row(i))
		}
		s.MustExec("INSERT INTO " + table + " VALUES " + strings.Join(vals, ", "))
	}
}

// equivalenceQueries covers every read operator — filters (including
// expressions the binder must clone correctly), joins, GROUP BY/HAVING/
// aggregates, DISTINCT, ORDER BY both pushed and unpushed, and subquery
// predicates that pin their operator to one worker. The golden suite
// (executor_golden_test.go) runs them, plus its own cases, at every fan-out.
var equivalenceQueries = []string{
	"SELECT * FROM t1 WHERE val < 500.0",
	"SELECT id, val * 2 + 1 FROM t1 WHERE grp % 3 = 1 AND name IS NOT NULL",
	"SELECT name FROM t1 WHERE name LIKE 'a%'",
	"SELECT id FROM t1 WHERE grp IN (1, 2, 3) AND val BETWEEN 100.0 AND 400.0",
	"SELECT UPPER(name), LENGTH(name) FROM t1 WHERE name IS NOT NULL AND grp < 10",
	"SELECT CASE WHEN val < 500.0 THEN 'lo' ELSE 'hi' END, id FROM t1 WHERE grp = 4",
	"SELECT id + val FROM t1",
	"SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(name) FROM t1 GROUP BY grp HAVING COUNT(*) > 3",
	"SELECT COUNT(DISTINCT grp) FROM t1",
	"SELECT COUNT(*) FROM t1 WHERE val < 250.0",
	"SELECT grp, COUNT(*) FROM t1 WHERE name IS NOT NULL GROUP BY grp ORDER BY grp",
	"SELECT DISTINCT grp FROM t1",
	"SELECT DISTINCT grp, name FROM t1 WHERE val < 700.0",
	"SELECT t1.id, t2.tag FROM t1 JOIN t2 ON t1.grp = t2.grp WHERE t2.id < 40",
	"SELECT COUNT(*) FROM t1 JOIN t2 ON t1.grp = t2.grp",
	"SELECT t1.id, t2.tag FROM t1 LEFT JOIN t2 ON t1.id = t2.id WHERE t1.val < 200.0",
	"SELECT id FROM t1 WHERE grp = 7 ORDER BY id",
	"SELECT id, val FROM t1 WHERE val < 300.0 ORDER BY val DESC LIMIT 7",
	"SELECT grp, val FROM t1 WHERE id IN (SELECT id FROM t2 WHERE tag IS NOT NULL) ORDER BY grp, val LIMIT 25",
	"SELECT val FROM t1 ORDER BY 1 LIMIT 10",
}

// TestParallelErrorEquivalence: a predicate that errors mid-scan must report
// the same error at any fan-out. Two different rows fail here — id 10 in the
// first morsel divides by zero, every id above 2899 in the last takes the
// root of a negative — and several workers must return the lowest morsel's
// error, which is the first one a single worker hits.
func TestParallelErrorEquivalence(t *testing.T) {
	e := newParallelEngine(t, 7)
	s := e.NewSession("root")
	q := "SELECT id FROM t1 WHERE SQRT(2899 - id) >= 0 AND val / (id - 10) > 1.0"
	var want string
	for _, workers := range []int{1, 4} {
		e.SetParallelism(workers, 64)
		_, err := s.Exec(q)
		if err == nil {
			t.Fatalf("%d workers: expected an error", workers)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Fatalf("error mismatch: %d workers %q, 1 worker %q", workers, err, want)
		}
	}
	if want != "division by zero" {
		t.Fatalf("got %q, want the first failing row's error (division by zero at id 10)", want)
	}
}

// TestParallelExplain checks EXPLAIN's fan-out label: a big table renders a
// Parallel Seq Scan with the worker count, a small table stays sequential,
// and ORDER BY pushdown (ordered index scan) never parallelizes.
func TestParallelExplain(t *testing.T) {
	e := newParallelEngine(t, 3)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE tiny (id INT PRIMARY KEY, v INT)")
	s.MustExec("INSERT INTO tiny VALUES (1, 10), (2, 20)")

	text := s.MustExec("EXPLAIN SELECT * FROM t1 WHERE val < 10.0").Text()
	if !strings.Contains(text, "Parallel Seq Scan on t1 (workers: 4)") {
		t.Fatalf("big-table scan should be parallel:\n%s", text)
	}
	text = s.MustExec("EXPLAIN SELECT * FROM tiny WHERE v = 10").Text()
	if strings.Contains(text, "Parallel") {
		t.Fatalf("scan under the row threshold should stay sequential:\n%s", text)
	}
	text = s.MustExec("EXPLAIN SELECT id FROM t1 ORDER BY id LIMIT 5").Text()
	if strings.Contains(text, "Parallel") {
		t.Fatalf("ordered (pushed-down) scan must stay sequential:\n%s", text)
	}
}

// TestParallelScanCountsVisitedRows: the fused morsel scan counts every
// visible row it inspects, filtered out or not.
func TestParallelScanCountsVisitedRows(t *testing.T) {
	e := newParallelEngine(t, 11)
	s := e.NewSession("root")
	before := e.ScanRowsVisited()
	s.MustExec("SELECT COUNT(*) FROM t1 WHERE val < 1.0")
	visited := e.ScanRowsVisited() - before
	if visited != 3000 {
		t.Fatalf("parallel scan visited %d rows, want 3000 (all visible rows, pre-filter)", visited)
	}
}

// TestCachedPlanFanOutFollowsRowCount: fan-out is decided from the rows an
// operator finds when it runs, so a plan cached while the table held one row
// still fans out once the table has grown past the threshold. (The plan cache
// is validated by catalog version, which DML never bumps; a plan-time mark
// froze the choice at the first execution's row count.)
func TestCachedPlanFanOutFollowsRowCount(t *testing.T) {
	e := NewEngine("stale")
	e.SetParallelism(2, 0)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	s.MustExec("INSERT INTO t VALUES (0, 0)")
	// Selective on purpose: only the scan ever sees enough rows to fan out.
	const q = "SELECT COUNT(*) FROM t WHERE v % 1000 = 7"
	if got := s.MustExec(q).Rows[0][0].I; got != 0 {
		t.Fatalf("count over one row = %d, want 0", got)
	}
	if b := e.Stats().Parallel.Batches; b != 0 {
		t.Fatalf("one-row table ran %d batches, want 0", b)
	}
	insertBatch(s, "t", 20000, func(i int) string { return fmt.Sprintf("(%d, %d)", i+1, i+1) })
	hits := e.Stats().PlanCache.Hits
	if got := s.MustExec(q).Rows[0][0].I; got != 20 {
		t.Fatalf("count over 20,001 rows = %d, want 20", got)
	}
	st := e.Stats()
	if st.PlanCache.Hits != hits+1 {
		t.Fatalf("second run should be served from the plan cache (hits %d -> %d)", hits, st.PlanCache.Hits)
	}
	if st.Parallel.Batches == 0 {
		t.Fatal("cached plan kept the scan at the fan-out of the one-row table it was planned against")
	}
	if want := int64(chunkCount(20001, morselSize)); st.Parallel.Morsels != want {
		t.Fatalf("scan dispatched %d morsels, want %d", st.Parallel.Morsels, want)
	}
}

// TestCorrelatedSubqueryRunsOnOneWorker: an operator whose expressions hold a
// subquery or an outer reference stays on the statement's goroutine however
// many workers the engine has — the subquery executes through the session.
// The inner scan, whose predicate references the outer row, is pinned the
// same way. Run under -race with four workers configured.
func TestCorrelatedSubqueryRunsOnOneWorker(t *testing.T) {
	e := NewEngine("corr")
	e.SetParallelism(4, 0)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE o (id INT PRIMARY KEY, k INT)")
	s.MustExec("CREATE TABLE i (k INT PRIMARY KEY, w INT)")
	insertBatch(s, "o", 2500, func(n int) string { return fmt.Sprintf("(%d, %d)", n, n%5) })
	s.MustExec("INSERT INTO i VALUES (0, 10), (1, 11), (2, 12), (3, 13), (4, 14)")

	res := s.MustExec("SELECT id FROM o WHERE k + 10 = (SELECT w FROM i WHERE i.k = o.k) AND id % 2 = 0")
	if len(res.Rows) != 1250 {
		t.Fatalf("correlated filter returned %d rows, want 1250", len(res.Rows))
	}
	for n, row := range res.Rows {
		if row[0].I != int64(2*n) {
			t.Fatalf("row %d is id %d, want %d (heap order)", n, row[0].I, 2*n)
		}
	}
	w := e.Stats().Parallel.Workers
	if w.Count == 0 || w.Quantile(1) > 1 {
		t.Fatalf("operators at the threshold ran with up to %d workers over %d batches, want 1", w.Quantile(1), w.Count)
	}

	// The same table without the subquery fans out.
	s.MustExec("SELECT id FROM o WHERE id % 2 = 0")
	if w := e.Stats().Parallel.Workers; w.Quantile(1) < 2 {
		t.Fatalf("plain scan used at most %d workers, want 4", w.Quantile(1))
	}
}

// TestSubThresholdOperatorsReuseEnv: filter + GROUP BY below the fan-out
// threshold allocates an Env per morsel and per group, never per row. What
// still grows with the input is the group key — two strings per row — and
// slice doubling; an Env per row and operator would add three more objects
// per row here (filter, key build, SUM).
func TestSubThresholdOperatorsReuseEnv(t *testing.T) {
	allocs := func(rows int) float64 {
		e := NewEngine("allocs")
		s := e.NewSession("root")
		s.MustExec("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
		insertBatch(s, "t", rows, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, i%4, i) })
		stmt, err := Parse("SELECT g, COUNT(*), SUM(v) FROM t WHERE v >= 0 GROUP BY g")
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(250), allocs(1000)
	if perRow := (large - small) / 750; perRow > 2.5 {
		t.Fatalf("250 rows: %.0f allocs, 1000 rows: %.0f — %.1f objects per extra row, want the 2 of the group key", small, large, perRow)
	}
}
