package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// rangeEngine builds the ordered-index fixture: n rows with an INT primary
// key, an indexed INT group column (every 10th row NULL), an indexed TEXT
// column, and an unindexed REAL column. Returned sessions share one engine.
func rangeEngine(t testing.TB, n int) (*Engine, *Session) {
	t.Helper()
	e := NewEngine("range")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE r (id INT PRIMARY KEY, grp INT, name TEXT, score REAL)`)
	s.MustExec(`CREATE INDEX idx_grp ON r (grp)`)
	s.MustExec(`CREATE INDEX idx_name ON r (name)`)
	batch := ""
	for i := 0; i < n; i++ {
		grp := fmt.Sprintf("%d", i%50)
		if i%10 == 9 {
			grp = "NULL"
		}
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %s, 'n%05d', %f)", i, grp, i, float64(i)*0.5)
		if (i+1)%500 == 0 || i == n-1 {
			s.MustExec("INSERT INTO r VALUES " + batch)
			batch = ""
		}
	}
	return e, s
}

func explainText(t *testing.T, s *Session, sql string) string {
	t.Helper()
	p, err := s.Plan(sql)
	if err != nil {
		t.Fatalf("Plan(%q): %v", sql, err)
	}
	return p.Explain()
}

func TestRangeScanSelection(t *testing.T) {
	_, s := rangeEngine(t, 500)

	// BETWEEN on an indexed column merges into one closed range.
	text := explainText(t, s, "SELECT id FROM r WHERE grp BETWEEN 3 AND 17")
	if !strings.Contains(text, "Index Range Scan on r using index idx_grp (grp >= 3 AND grp <= 17)") {
		t.Fatalf("expected range scan for BETWEEN:\n%s", text)
	}

	// Comparison conjuncts on the single-column PK use its ordered face.
	text = explainText(t, s, "SELECT id FROM r WHERE id < 100")
	if !strings.Contains(text, "Index Range Scan on r using primary key (id < 100)") {
		t.Fatalf("expected PK range scan:\n%s", text)
	}

	// Conjuncts on one column tighten into a single bound pair; the literal
	// may sit on either side of the comparison.
	text = explainText(t, s, "SELECT id FROM r WHERE grp > 3 AND 17 >= grp AND grp > 1")
	if !strings.Contains(text, "Index Range Scan on r using index idx_grp (grp > 3 AND grp <= 17)") {
		t.Fatalf("expected merged bounds:\n%s", text)
	}

	// Text ranges work through the text index.
	text = explainText(t, s, "SELECT id FROM r WHERE name BETWEEN 'n00010' AND 'n00020'")
	if !strings.Contains(text, "Index Range Scan on r using index idx_name") {
		t.Fatalf("expected text range scan:\n%s", text)
	}

	// An unindexed column stays a seq scan.
	text = explainText(t, s, "SELECT id FROM r WHERE score < 10.0")
	if !strings.Contains(text, "Seq Scan on r") || strings.Contains(text, "Range Scan") {
		t.Fatalf("unindexed range must seq-scan:\n%s", text)
	}

	// Equality still wins over range when both are available.
	text = explainText(t, s, "SELECT id FROM r WHERE grp = 5 AND id < 400")
	if !strings.Contains(text, "Index Scan on r using index idx_grp (grp = 5)") {
		t.Fatalf("equality must take priority over range:\n%s", text)
	}

	// NOT BETWEEN, ORed ranges, and type-incompatible bounds are not ranges.
	for _, q := range []string{
		"SELECT id FROM r WHERE grp NOT BETWEEN 3 AND 17",
		"SELECT id FROM r WHERE grp < 3 OR grp > 17",
		"SELECT id FROM r WHERE grp < 'x'",
	} {
		if text := explainText(t, s, q); strings.Contains(text, "Range Scan") {
			t.Fatalf("%s must not use a range scan:\n%s", q, text)
		}
	}
}

// TestRangeScanVisitsOnlyInRange is the PR's acceptance criterion: a
// BETWEEN on an indexed column materializes only the in-range rows, where
// the seq scan visits the whole table.
func TestRangeScanVisitsOnlyInRange(t *testing.T) {
	e, s := rangeEngine(t, 2000)

	matched := s.MustExec("SELECT COUNT(*) FROM r WHERE grp BETWEEN 3 AND 7").Rows[0][0].I
	if matched == 0 {
		t.Fatal("fixture has no in-range rows")
	}

	before := e.ScanRowsVisited()
	s.MustExec("SELECT COUNT(*) FROM r WHERE grp BETWEEN 3 AND 7")
	if got := e.ScanRowsVisited() - before; got != matched {
		t.Fatalf("range scan visited %d rows, want exactly the %d in-range rows", got, matched)
	}

	// The same predicate on the unindexed column walks the whole table.
	total := s.MustExec("SELECT COUNT(*) FROM r").Rows[0][0].I
	before = e.ScanRowsVisited()
	s.MustExec("SELECT COUNT(*) FROM r WHERE score BETWEEN 3.0 AND 7.0")
	if got := e.ScanRowsVisited() - before; got != total {
		t.Fatalf("seq scan visited %d rows, want all %d", got, total)
	}
}

// TestRangeAndTopKEquivalence is the access-path equivalence satellite:
// every range / ordered-scan / Top-K plan must return byte-identical
// results to the forced seq-scan path, across INT, TEXT, and NULLs at range
// boundaries. The forced session plans with every upgrade disabled
// (forceSeqScan) and executes through ExecStmt so its plans never touch the
// shared plan cache.
func TestRangeAndTopKEquivalence(t *testing.T) {
	e, s := rangeEngine(t, 1000)
	forced := e.NewSession("root")
	forced.forceSeqScan = true

	queries := []string{
		// Closed, open, and half-open INT ranges; bounds on and off data.
		"SELECT id, grp FROM r WHERE grp BETWEEN 10 AND 20 ORDER BY id",
		"SELECT id, grp FROM r WHERE grp > 10 AND grp < 20 ORDER BY id",
		"SELECT id, grp FROM r WHERE grp >= 48 ORDER BY id",
		"SELECT id, grp FROM r WHERE grp <= 0 ORDER BY id",
		"SELECT id, grp FROM r WHERE grp < 0 ORDER BY id",                 // empty
		"SELECT id, grp FROM r WHERE grp BETWEEN 30 AND 10 ORDER BY id",   // inverted => empty
		"SELECT id, grp FROM r WHERE grp BETWEEN 49 AND 4900 ORDER BY id", // upper bound past data
		// PK ranges (dense, unique).
		"SELECT id FROM r WHERE id BETWEEN 100 AND 200",
		"SELECT id FROM r WHERE id > 990",
		"SELECT id FROM r WHERE id < 10 AND id >= 5",
		// TEXT ranges.
		"SELECT id, name FROM r WHERE name BETWEEN 'n00100' AND 'n00200' ORDER BY id",
		"SELECT id, name FROM r WHERE name > 'n00990' ORDER BY id",
		// Float literals against the INT column (cross-kind compare).
		"SELECT id, grp FROM r WHERE grp BETWEEN 9.5 AND 12.5 ORDER BY id",
		// Ordered scans: NULLs last ascending, first descending, ties in
		// insertion order either way.
		"SELECT id, grp FROM r ORDER BY grp",
		"SELECT id, grp FROM r ORDER BY grp DESC",
		"SELECT id, grp FROM r ORDER BY grp LIMIT 25",
		"SELECT id, grp FROM r ORDER BY grp DESC LIMIT 25",
		"SELECT id, grp FROM r ORDER BY grp LIMIT 10 OFFSET 5",
		"SELECT id, grp FROM r ORDER BY grp DESC LIMIT 10 OFFSET 995", // offset into the tail
		"SELECT id FROM r ORDER BY id DESC LIMIT 7",
		// Range + pushed sort + Top-K on the same column.
		"SELECT id, grp FROM r WHERE grp BETWEEN 3 AND 7 ORDER BY grp LIMIT 12",
		"SELECT id, grp FROM r WHERE grp >= 45 ORDER BY grp DESC LIMIT 9",
		// Sort pushed but limit not fusable (extra conjunct above the scan).
		"SELECT id, grp FROM r WHERE grp BETWEEN 3 AND 7 AND name LIKE 'n%' ORDER BY grp LIMIT 6",
		// ORDER BY a range-scanned column when sort cannot push (two keys).
		"SELECT id, grp FROM r WHERE grp BETWEEN 3 AND 7 ORDER BY grp, id",
	}
	for _, q := range queries {
		fast := s.MustExec(q)
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		slow, err := forced.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("forced %q: %v", q, err)
		}
		if fast.Text() != slow.Text() {
			t.Fatalf("%s\noptimized and forced seq-scan results differ:\n--- optimized ---\n%s\n--- forced ---\n%s",
				q, fast.Text(), slow.Text())
		}
	}
}

func TestOrderByPushdownExplain(t *testing.T) {
	_, s := rangeEngine(t, 200)

	// ORDER BY + LIMIT on an ordered column fuses into a Top-K scan: no
	// Sort stage, no Limit stage, the scan carries the order.
	text := explainText(t, s, "SELECT id FROM r ORDER BY grp LIMIT 10")
	if !strings.Contains(text, "Top-K (limit 10): grp") ||
		!strings.Contains(text, "Index Range Scan on r using index idx_grp order: grp") {
		t.Fatalf("expected Top-K over ordered scan:\n%s", text)
	}
	if strings.Contains(text, "Sort:") || strings.Contains(text, "Limit 10") {
		t.Fatalf("Top-K plan must not keep Sort/Limit stages:\n%s", text)
	}

	// DESC and OFFSET render in the Top-K node.
	text = explainText(t, s, "SELECT id FROM r ORDER BY id DESC LIMIT 5 OFFSET 3")
	if !strings.Contains(text, "Top-K (limit 5 offset 3): id DESC") ||
		!strings.Contains(text, "Index Range Scan on r using primary key order: id DESC") {
		t.Fatalf("expected descending PK Top-K:\n%s", text)
	}

	// A conjunct the bounds don't imply blocks the fusion: the sort is
	// still pushed (no Sort stage) but Limit stays a pipeline stage.
	text = explainText(t, s, "SELECT id FROM r WHERE grp <= 7 AND name LIKE 'n%' ORDER BY grp LIMIT 4")
	if strings.Contains(text, "Sort:") || strings.Contains(text, "Top-K") {
		t.Fatalf("partial filter: want pushed sort without Top-K:\n%s", text)
	}
	if !strings.Contains(text, "Limit 4") || !strings.Contains(text, "order: grp") {
		t.Fatalf("partial filter: want Limit stage over ordered scan:\n%s", text)
	}

	// An output alias shadowing the sort key blocks pushdown entirely
	// (orderRows sorts by the aliased projection, not the table column).
	text = explainText(t, s, "SELECT name AS grp FROM r ORDER BY grp LIMIT 3")
	if !strings.Contains(text, "Sort: grp") {
		t.Fatalf("alias shadow must keep the real sort:\n%s", text)
	}
	r := s.MustExec("SELECT name AS grp FROM r ORDER BY grp LIMIT 1")
	if r.Rows[0][0].S != "n00000" {
		t.Fatalf("alias shadow sorted wrong: %v", r.Rows[0][0])
	}

	// Aggregation, DISTINCT, and multi-key sorts keep the sort stage.
	for _, q := range []string{
		"SELECT grp, COUNT(*) FROM r GROUP BY grp ORDER BY grp",
		"SELECT DISTINCT grp FROM r ORDER BY grp",
		"SELECT id, grp FROM r ORDER BY grp, id",
	} {
		if text := explainText(t, s, q); !strings.Contains(text, "Sort:") {
			t.Fatalf("%s must keep its sort stage:\n%s", q, text)
		}
	}
}

func TestTopKEarlyTermination(t *testing.T) {
	e, s := rangeEngine(t, 2000)

	// The fused limit stops the ordered scan after offset+limit rows.
	before := e.ScanRowsVisited()
	r := s.MustExec("SELECT id FROM r ORDER BY id LIMIT 5 OFFSET 2")
	if got := e.ScanRowsVisited() - before; got != 7 {
		t.Fatalf("Top-K visited %d rows, want limit+offset = 7", got)
	}
	if len(r.Rows) != 5 || r.Rows[0][0].I != 2 || r.Rows[4][0].I != 6 {
		t.Fatalf("Top-K rows wrong: %v", r.Rows)
	}

	// Bounded Top-K: range bounds + fused limit visit min(k, in-range).
	before = e.ScanRowsVisited()
	r = s.MustExec("SELECT id, grp FROM r WHERE grp BETWEEN 10 AND 20 ORDER BY grp LIMIT 4")
	if got := e.ScanRowsVisited() - before; got != 4 {
		t.Fatalf("bounded Top-K visited %d rows, want 4", got)
	}
	for _, row := range r.Rows {
		if row[1].I < 10 || row[1].I > 20 {
			t.Fatalf("row outside range: %v", row)
		}
	}

	// DESC Top-K terminates too (NULL grp rows order first and count).
	before = e.ScanRowsVisited()
	r = s.MustExec("SELECT id, grp FROM r ORDER BY grp DESC LIMIT 3")
	if got := e.ScanRowsVisited() - before; got != 3 {
		t.Fatalf("desc Top-K visited %d rows, want 3", got)
	}
	for _, row := range r.Rows {
		if !row[1].IsNull() {
			t.Fatalf("desc Top-K must surface NULLs first, got %v", r.Rows)
		}
	}
}

// TestWriteRangeAccess: UPDATE/DELETE with range predicates match rows
// through the ordered index and visit only in-range rows.
func TestWriteRangeAccess(t *testing.T) {
	e, s := rangeEngine(t, 2000)

	text := s.MustExec("EXPLAIN UPDATE r SET score = 0 WHERE grp BETWEEN 3 AND 5").Text()
	if !strings.Contains(text, "Update on r") ||
		!strings.Contains(text, "Index Range Scan on r using index idx_grp (grp >= 3 AND grp <= 5)") {
		t.Fatalf("EXPLAIN UPDATE must show the range access path:\n%s", text)
	}

	matched := s.MustExec("SELECT COUNT(*) FROM r WHERE grp BETWEEN 3 AND 5").Rows[0][0].I
	before := e.DMLRowsVisited()
	r := s.MustExec("UPDATE r SET score = -1 WHERE grp BETWEEN 3 AND 5")
	if got := e.DMLRowsVisited() - before; got != matched {
		t.Fatalf("range UPDATE visited %d rows, want %d", got, matched)
	}
	if int64(r.Affected) != matched {
		t.Fatalf("range UPDATE affected %d rows, want %d", r.Affected, matched)
	}

	// Range DELETE through the PK's ordered face, wrapped in a transaction:
	// rollback must restore the rows and the ordered structures with them.
	total := s.MustExec("SELECT COUNT(*) FROM r").Rows[0][0].I
	s.MustExec("BEGIN")
	before = e.DMLRowsVisited()
	r = s.MustExec("DELETE FROM r WHERE id >= 1990")
	if got := e.DMLRowsVisited() - before; got != 10 {
		t.Fatalf("PK range DELETE visited %d rows, want 10", got)
	}
	if r.Affected != 10 {
		t.Fatalf("PK range DELETE affected %d rows, want 10", r.Affected)
	}
	s.MustExec("ROLLBACK")
	if got := s.MustExec("SELECT COUNT(*) FROM r").Rows[0][0].I; got != total {
		t.Fatalf("rollback lost rows: %d, want %d", got, total)
	}
	// The resurrected rows are findable through the ordered index again.
	if got := s.MustExec("SELECT COUNT(*) FROM r WHERE id BETWEEN 1990 AND 1999").Rows[0][0].I; got != 10 {
		t.Fatalf("ordered PK out of sync after rollback: %d rows", got)
	}
}

// TestOrderedIndexMaintenance drives the sorted face through the full DML
// life cycle — inserts out of order, value-moving updates, deletes,
// CREATE INDEX over existing rows — and checks range results against
// recomputed expectations.
func TestOrderedIndexMaintenance(t *testing.T) {
	e := NewEngine("maint")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE m (id INT PRIMARY KEY, v INT)`)
	// Out-of-order inserts.
	for _, v := range []int{50, 10, 30, 20, 40, 10, 30} {
		s.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d)", s.MustExec("SELECT COUNT(*) FROM m").Rows[0][0].I, v))
	}
	// Index created after the data exists: the build must sort it.
	s.MustExec("CREATE INDEX idx_v ON m (v)")
	r := s.MustExec("SELECT id FROM m WHERE v BETWEEN 20 AND 40 ORDER BY v")
	if len(r.Rows) != 4 {
		t.Fatalf("range after CREATE INDEX: %d rows, want 4", len(r.Rows))
	}

	// An UPDATE that moves a value across the range boundary.
	s.MustExec("UPDATE m SET v = 25 WHERE id = 0") // 50 -> 25
	if got := s.MustExec("SELECT COUNT(*) FROM m WHERE v BETWEEN 20 AND 40").Rows[0][0].I; got != 5 {
		t.Fatalf("after update want 5 in-range rows, got %d", got)
	}
	if got := s.MustExec("SELECT COUNT(*) FROM m WHERE v > 40").Rows[0][0].I; got != 0 {
		t.Fatalf("moved value still visible above 40: %d", got)
	}

	// Deleting every row of one value removes it from the ordered face.
	s.MustExec("DELETE FROM m WHERE v = 10")
	r = s.MustExec("SELECT v FROM m ORDER BY v LIMIT 1")
	if r.Rows[0][0].I != 20 {
		t.Fatalf("min after delete = %v, want 20", r.Rows[0][0])
	}
}

// TestNegativeLimitOffset is the satellite regression test: negative or
// non-integer LIMIT/OFFSET must fail with a clear error, never slice.
func TestNegativeLimitOffset(t *testing.T) {
	_, s := rangeEngine(t, 20)
	for sql, want := range map[string]string{
		"SELECT id FROM r LIMIT -1":             "LIMIT must be a non-negative integer",
		"SELECT id FROM r ORDER BY id LIMIT -5": "LIMIT must be a non-negative integer",
		"SELECT id FROM r OFFSET -2":            "OFFSET must be a non-negative integer",
		"SELECT id FROM r LIMIT 5 OFFSET -2":    "OFFSET must be a non-negative integer",
		"SELECT id FROM r LIMIT 'x'":            "LIMIT must be a non-negative integer",
		"SELECT id FROM r LIMIT 2.5":            "LIMIT must be a non-negative integer",
	} {
		_, err := s.Exec(sql)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: want error %q, got %v", sql, want, err)
		}
	}
	// LIMIT 0 is legal and returns nothing — and must not fuse as Top-K
	// (MaxRows 0 means unlimited to the scan, so the advertised cutoff
	// would be a lie).
	if r := s.MustExec("SELECT id FROM r ORDER BY id LIMIT 0"); len(r.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(r.Rows))
	}
	if text := explainText(t, s, "SELECT id FROM r ORDER BY id LIMIT 0"); strings.Contains(text, "Top-K") {
		t.Fatalf("LIMIT 0 must not advertise Top-K:\n%s", text)
	}
}

// TestRangePlanCache: range and Top-K plans are cached like every other
// statement, and a catalog change (CREATE INDEX) invalidates a seq-scan
// plan so the next execution upgrades to the range scan.
func TestRangePlanCache(t *testing.T) {
	e := NewEngine("rangecache")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE c (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 200; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", i, i%20))
	}
	const q = "SELECT COUNT(*) FROM c WHERE v BETWEEN 3 AND 5"

	// Cold: no index, seq scan; second run is a cache hit.
	want := s.MustExec(q).Rows[0][0].I
	h0 := e.PlanCacheSnapshot().Hits
	if got := s.MustExec(q).Rows[0][0].I; got != want {
		t.Fatalf("cached seq result changed: %d vs %d", got, want)
	}
	if h1 := e.PlanCacheSnapshot().Hits; h1 != h0+1 {
		t.Fatalf("expected a plan-cache hit, stats %d -> %d", h0, h1)
	}

	// CREATE INDEX bumps the catalog: the cached seq plan is stale and the
	// replan chooses the range scan, with identical results.
	s.MustExec("CREATE INDEX idx_v ON c (v)")
	before := e.ScanRowsVisited()
	if got := s.MustExec(q).Rows[0][0].I; got != want {
		t.Fatalf("post-index result changed: %d vs %d", got, want)
	}
	if visited := e.ScanRowsVisited() - before; visited != want {
		t.Fatalf("replanned query visited %d rows, want the %d in-range rows", visited, want)
	}

	// Cached Top-K plans see data changes (plans cache access strategy, not
	// results).
	const topq = "SELECT id FROM c ORDER BY v LIMIT 1 OFFSET 0"
	first := s.MustExec(topq).Rows[0][0].I
	s.MustExec("UPDATE c SET v = -100 WHERE id = 77")
	if got := s.MustExec(topq).Rows[0][0].I; got != 77 {
		t.Fatalf("cached Top-K missed new minimum: got id %d (first run %d)", got, first)
	}
}
