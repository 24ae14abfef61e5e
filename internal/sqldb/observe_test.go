package sqldb

import (
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/sqldb/vfs"
)

// actualRows extracts the N from the first plan line matching prefix that
// carries an " (actual rows=N time=...)" annotation.
func actualRows(t *testing.T, text, prefix string) int64 {
	t.Helper()
	re := regexp.MustCompile(`\(actual rows=(\d+) time=`)
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, prefix) {
			continue
		}
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q has no actual-rows annotation", line)
		}
		n, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	t.Fatalf("no plan line matching %q in:\n%s", prefix, text)
	return 0
}

// TestExplainAnalyzeSeqScan: the scan operator's actual row count must
// agree with the engine's ScanRowsVisited counter for the same execution.
func TestExplainAnalyzeSeqScan(t *testing.T) {
	s := plannerEngine(t)
	e := s.Engine()

	before := e.ScanRowsVisited()
	r := s.MustExec("EXPLAIN ANALYZE SELECT name FROM emp")
	delta := e.ScanRowsVisited() - before

	if len(r.Columns) != 1 || r.Columns[0] != "QUERY PLAN" {
		t.Fatalf("EXPLAIN ANALYZE columns = %v", r.Columns)
	}
	text := r.Text()
	if !strings.Contains(text, "Execution Time: ") {
		t.Fatalf("missing execution time footer:\n%s", text)
	}
	got := actualRows(t, text, "Seq Scan on emp")
	if got != 60 {
		t.Fatalf("seq scan actual rows = %d, want 60", got)
	}
	if got != delta {
		t.Fatalf("actual rows %d != ScanRowsVisited delta %d", got, delta)
	}
}

// TestExplainAnalyzeDML: EXPLAIN ANALYZE on UPDATE/DELETE executes the
// statement, annotates the access path, and reports affected rows.
func TestExplainAnalyzeDML(t *testing.T) {
	s := plannerEngine(t)
	e := s.Engine()

	before := e.DMLRowsVisited()
	r := s.MustExec("EXPLAIN ANALYZE UPDATE emp SET salary = 12345 WHERE id = 3")
	delta := e.DMLRowsVisited() - before
	text := r.Text()
	if !strings.Contains(text, "Update on emp") {
		t.Fatalf("missing update header:\n%s", text)
	}
	if !strings.Contains(text, "Rows Affected: 1") {
		t.Fatalf("missing rows-affected footer:\n%s", text)
	}
	if got := actualRows(t, text, "Index Scan on emp"); got != delta {
		t.Fatalf("index scan actual rows %d != DMLRowsVisited delta %d", got, delta)
	}
	// Unlike plain EXPLAIN, ANALYZE executes: the update is visible.
	if got := s.MustExec("SELECT salary FROM emp WHERE id = 3").Rows[0][0].F; got != 12345 {
		t.Fatalf("update not applied, salary = %v", got)
	}

	before = e.DMLRowsVisited()
	r = s.MustExec("EXPLAIN ANALYZE DELETE FROM emp WHERE name = 'e5'")
	delta = e.DMLRowsVisited() - before
	text = r.Text()
	if !strings.Contains(text, "Delete on emp") || !strings.Contains(text, "Rows Affected: 1") {
		t.Fatalf("delete analyze wrong:\n%s", text)
	}
	if got := actualRows(t, text, "Seq Scan on emp"); got != delta {
		t.Fatalf("seq scan actual rows %d != DMLRowsVisited delta %d", got, delta)
	}
	if got := s.MustExec("SELECT COUNT(*) FROM emp WHERE name = 'e5'").Rows[0][0].I; got != 0 {
		t.Fatal("delete not applied")
	}
}

func TestExplainAnalyzeUnsupported(t *testing.T) {
	s := plannerEngine(t)
	if _, err := s.Exec("EXPLAIN ANALYZE CREATE TABLE z (a INT)"); err == nil {
		t.Fatal("EXPLAIN ANALYZE DDL should error")
	}
}

// TestSlowQueryLogEngine: a zero threshold records every statement with
// user, rows, and a rendered plan; a negative threshold disables the log.
func TestSlowQueryLogEngine(t *testing.T) {
	s := plannerEngine(t)
	e := s.Engine()

	e.SetSlowQueryThreshold(0)
	s.MustExec("SELECT name FROM emp WHERE dept_id = 2")
	entries := e.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("zero threshold recorded nothing")
	}
	last := entries[len(entries)-1]
	if last.SQL != "SELECT name FROM emp WHERE dept_id = 2" {
		t.Fatalf("entry SQL = %q", last.SQL)
	}
	if last.User != "root" {
		t.Fatalf("entry user = %q, want root", last.User)
	}
	if last.Rows != 20 {
		t.Fatalf("entry rows = %d, want 20", last.Rows)
	}
	if !strings.Contains(last.Plan, "Index Scan on emp") {
		t.Fatalf("entry plan missing access path:\n%s", last.Plan)
	}
	if last.DurationNs < 0 {
		t.Fatalf("entry duration = %d", last.DurationNs)
	}

	e.SetSlowQueryThreshold(-1)
	n := len(e.SlowQueries())
	s.MustExec("SELECT COUNT(*) FROM emp")
	if got := len(e.SlowQueries()); got != n {
		t.Fatalf("negative threshold still recorded: %d -> %d entries", n, got)
	}
}

// TestEngineStatsSnapshot: the snapshot reflects statement kinds, rows
// returned, plan-cache state, and client-retry notes.
func TestEngineStatsSnapshot(t *testing.T) {
	s := plannerEngine(t)
	e := s.Engine()

	s.MustExec("SELECT name FROM emp")              // select, 60 rows
	s.MustExec("INSERT INTO dept VALUES (9, 'qa')") // insert
	e.NoteTxnRetry()

	snap := e.Stats()
	if !snap.Enabled {
		t.Fatal("snapshot should report metrics enabled")
	}
	if snap.Statements["select"].Count == 0 {
		t.Fatalf("no select latencies recorded: %+v", snap.Statements)
	}
	if snap.Statements["insert"].Count == 0 {
		t.Fatalf("no insert latencies recorded: %+v", snap.Statements)
	}
	if snap.RowsReturned < 60 {
		t.Fatalf("RowsReturned = %d, want >= 60", snap.RowsReturned)
	}
	if snap.RowsScanned != e.ScanRowsVisited() {
		t.Fatalf("RowsScanned %d != engine counter %d", snap.RowsScanned, e.ScanRowsVisited())
	}
	if snap.PlanCache.Hits+snap.PlanCache.Misses == 0 {
		t.Fatal("plan cache saw no traffic")
	}
	if snap.MVCC.Retries != 1 {
		t.Fatalf("MVCC.Retries = %d, want 1", snap.MVCC.Retries)
	}
	if snap.SlowLog.ThresholdNs != e.SlowQueryThreshold().Nanoseconds() {
		t.Fatalf("SlowLog.ThresholdNs = %d, want %d",
			snap.SlowLog.ThresholdNs, e.SlowQueryThreshold().Nanoseconds())
	}
	if snap.Health.Degraded {
		t.Fatalf("healthy engine reported degraded: %+v", snap.Health)
	}
}

// TestDegradedReasonInStats: after a WAL fault degrades the engine, both
// Health and the stats snapshot carry a human-readable reason naming the
// subsystem.
func TestDegradedReasonInStats(t *testing.T) {
	e, s, fs := openFaultEngine(t, SyncAlways)
	defer e.Close()
	var tripped atomic.Bool
	fs.SetHook(func(op vfs.Op) *vfs.Fault {
		if op.Kind == vfs.OpWrite && strings.Contains(op.Path, "wal-") && tripped.CompareAndSwap(false, true) {
			return &vfs.Fault{Err: syscall.ENOSPC}
		}
		return nil
	})
	if _, err := s.Exec(`INSERT INTO t (id, v) VALUES (3, 'three')`); err == nil {
		t.Fatal("commit should fail when the WAL append hits ENOSPC")
	}

	h := e.Health()
	if !h.Degraded {
		t.Fatalf("engine should be degraded: %+v", h)
	}
	if h.Reason == "" || !strings.Contains(h.Reason, "wal") {
		t.Fatalf("Health.Reason = %q, want non-empty mentioning wal", h.Reason)
	}

	snap := e.Stats()
	if !snap.Health.Degraded {
		t.Fatalf("stats snapshot missed degraded state: %+v", snap.Health)
	}
	if snap.Health.Reason != h.Reason {
		t.Fatalf("snapshot reason %q != health reason %q", snap.Health.Reason, h.Reason)
	}
	if snap.Health.Transitions == 0 {
		t.Fatal("degraded transition not counted")
	}
}

// TestStatsDisabledEngine: with recording globally off, statement
// histograms stay empty but the snapshot still carries structural state.
func TestStatsDisabledEngine(t *testing.T) {
	defer stats.SetEnabled(true)
	stats.SetEnabled(false)
	s := plannerEngine(t)
	e := s.Engine()
	s.MustExec("SELECT name FROM emp")
	snap := e.Stats()
	if snap.Enabled {
		t.Fatal("snapshot should report metrics disabled")
	}
	if len(snap.Statements) != 0 {
		t.Fatalf("disabled recording still observed latencies: %+v", snap.Statements)
	}
	// Structural counters (catalog-derived, not histogram-gated) remain.
	if snap.PlanCache.Size < 0 {
		t.Fatalf("bad plan cache size: %+v", snap.PlanCache)
	}
}
