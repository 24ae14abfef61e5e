package sqldb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/sqldb/vfs"
)

func benchEngine(b *testing.B, rows int, withIndex bool) (*Engine, *Session) {
	b.Helper()
	e := NewEngine("bench")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, val REAL, name TEXT)`)
	s.MustExec(`CREATE TABLE child (id INT PRIMARY KEY, t_id INT REFERENCES t(id), x REAL)`)
	if withIndex {
		s.MustExec(`CREATE INDEX idx_grp ON t (grp)`)
	}
	batch := ""
	for i := 0; i < rows; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d, %f, 'name%d')", i, i%50, float64(i)*1.5, i)
		if (i+1)%500 == 0 || i == rows-1 {
			s.MustExec("INSERT INTO t VALUES " + batch)
			batch = ""
		}
	}
	for i := 0; i < rows/2; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d, %f)", i, i*2, float64(i))
		if (i+1)%500 == 0 || i == rows/2-1 {
			s.MustExec("INSERT INTO child VALUES " + batch)
			batch = ""
		}
	}
	b.ResetTimer()
	return e, s
}

func BenchmarkParseSelect(b *testing.B) {
	const q = `SELECT a.name, SUM(b.x) AS total FROM t a JOIN child b ON a.id = b.t_id WHERE a.grp BETWEEN 3 AND 17 AND a.name LIKE 'name%' GROUP BY a.name HAVING SUM(b.x) > 10 ORDER BY total DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertSingleRow(b *testing.B) {
	_, s := benchEngine(b, 1000, false)
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 1.0, 'x')", 10_000+i))
	}
}

func BenchmarkSelectFullScan(b *testing.B) {
	_, s := benchEngine(b, 5000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp = 7")
		if r.Rows[0][0].I == 0 {
			b.Fatal("no rows matched")
		}
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	_, s := benchEngine(b, 5000, true)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp = 7")
		if r.Rows[0][0].I == 0 {
			b.Fatal("no rows matched")
		}
	}
}

func BenchmarkSelectPKLookup(b *testing.B) {
	_, s := benchEngine(b, 5000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec(fmt.Sprintf("SELECT val FROM t WHERE id = %d", i%5000))
		if len(r.Rows) != 1 {
			b.Fatal("pk lookup missed")
		}
	}
}

// BenchmarkParallelSelect measures concurrent read sessions sharing the
// engine's read lock. Before the planner refactor every statement held one
// exclusive mutex, so this workload serialized; compare against
// BenchmarkSelectIndexed for the single-session baseline.
func BenchmarkParallelSelect(b *testing.B) {
	e, _ := benchEngine(b, 5000, true)
	b.RunParallel(func(pb *testing.PB) {
		s := e.NewSession("root")
		for pb.Next() {
			r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp = 7")
			if r.Rows[0][0].I == 0 {
				b.Fatal("no rows matched")
			}
		}
	})
}

// BenchmarkParallelSelectWithWriter measures reader throughput while one
// session continuously commits full-table UPDATEs. Before MVCC every write
// statement held the engine lock exclusively for its whole run, so readers
// serialized behind it; now writers take it only for per-row version
// installation and readers resolve their snapshot in parallel. Compare
// against BenchmarkParallelSelect for the no-writer ceiling.
func BenchmarkParallelSelectWithWriter(b *testing.B) {
	e, _ := benchEngine(b, 5000, true)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := e.NewSession("root")
		for {
			select {
			case <-stop:
				return
			default:
				w.MustExec("UPDATE t SET val = val + 1 WHERE grp >= 0")
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := e.NewSession("root")
		for pb.Next() {
			r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp = 7")
			if r.Rows[0][0].I == 0 {
				b.Fatal("no rows matched")
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkWriteConflictRetry measures the serialization-failure round
// trip: two sessions increment the same row in explicit transactions; the
// loser rolls back and retries. The reported rate includes the conflict
// detection, rollback, and retry cost; the engine's conflict counter is
// reported as conflicts/op.
func BenchmarkWriteConflictRetry(b *testing.B) {
	e := NewEngine("conflict")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE c (id INT PRIMARY KEY, n INT)`)
	root.MustExec(`INSERT INTO c VALUES (1, 0)`)
	before := e.WriteConflicts()
	b.ResetTimer()
	b.SetParallelism(max(1, (4+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
	b.RunParallel(func(pb *testing.PB) {
		s := e.NewSession("root")
		for pb.Next() {
			for {
				ok := true
				for _, q := range []string{"BEGIN", "UPDATE c SET n = n + 1 WHERE id = 1", "COMMIT"} {
					if _, err := s.Exec(q); err != nil {
						if !IsRetryable(err) {
							b.Fatalf("%s: %v", q, err)
						}
						s.MustExec("ROLLBACK")
						ok = false
						break
					}
				}
				if ok {
					break
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(e.WriteConflicts()-before)/float64(b.N), "conflicts/op")
	// Every increment must have landed exactly once despite the conflicts.
	if got := root.MustExec("SELECT n FROM c WHERE id = 1").Rows[0][0].I; got != int64(b.N) {
		b.Fatalf("lost updates: counter %d, want %d", got, b.N)
	}
}

// BenchmarkExplain measures plan construction alone (parse + plan, no
// execution).
func BenchmarkExplain(b *testing.B) {
	_, s := benchEngine(b, 1000, true)
	for i := 0; i < b.N; i++ {
		s.MustExec("EXPLAIN SELECT name FROM t WHERE grp = 7 ORDER BY val DESC LIMIT 5")
	}
}

func BenchmarkHashJoin(b *testing.B) {
	_, s := benchEngine(b, 2000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT COUNT(*) FROM t JOIN child ON t.id = child.t_id")
		if r.Rows[0][0].I == 0 {
			b.Fatal("join empty")
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	_, s := benchEngine(b, 5000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT grp, COUNT(*), AVG(val) FROM t GROUP BY grp")
		if len(r.Rows) != 50 {
			b.Fatalf("want 50 groups, got %d", len(r.Rows))
		}
	}
}

func BenchmarkOrderByLimit(b *testing.B) {
	_, s := benchEngine(b, 5000, false)
	for i := 0; i < b.N; i++ {
		s.MustExec("SELECT name, val FROM t ORDER BY val DESC LIMIT 10")
	}
}

// BenchmarkSelectRangeScan is the 10k-row full-scan baseline for a range
// predicate: without an ordered index every BETWEEN walks the whole table.
func BenchmarkSelectRangeScan(b *testing.B) {
	_, s := benchEngine(b, 10_000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp BETWEEN 3 AND 7")
		if r.Rows[0][0].I == 0 {
			b.Fatal("no rows matched")
		}
	}
}

// BenchmarkSelectRangeIndexed runs the same BETWEEN through the index's
// ordered face: only the in-range rows are visited. The >=10x gap against
// BenchmarkSelectRangeScan is this PR's acceptance criterion.
func BenchmarkSelectRangeIndexed(b *testing.B) {
	_, s := benchEngine(b, 10_000, true)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT COUNT(*) FROM t WHERE grp BETWEEN 3 AND 7")
		if r.Rows[0][0].I == 0 {
			b.Fatal("no rows matched")
		}
	}
}

// BenchmarkTopKLimit fuses ORDER BY + LIMIT into the ordered PK scan: the
// scan stops after 10 rows instead of materializing and sorting 10k.
// Compare BenchmarkOrderByLimit, which sorts the whole table.
func BenchmarkTopKLimit(b *testing.B) {
	_, s := benchEngine(b, 10_000, false)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT id, name FROM t ORDER BY id DESC LIMIT 10")
		if len(r.Rows) != 10 {
			b.Fatal("top-k row count wrong")
		}
	}
}

// BenchmarkOrderByIndexed emits a full table in index order (no LIMIT):
// the sort stage is skipped but every row is still materialized.
func BenchmarkOrderByIndexed(b *testing.B) {
	_, s := benchEngine(b, 10_000, true)
	for i := 0; i < b.N; i++ {
		r := s.MustExec("SELECT id FROM t ORDER BY grp")
		if len(r.Rows) != 10_000 {
			b.Fatal("ordered scan row count wrong")
		}
	}
}

// BenchmarkUpdateByPK measures the planned write path: a PK point UPDATE
// visits exactly one row on the 10k-row table instead of scanning all of
// them. rows-visited/op is reported as a custom metric; the ≥10× reduction
// against the old full-scan path is asserted in TestUpdateByPKVisitsOneRow.
func BenchmarkUpdateByPK(b *testing.B) {
	e, s := benchEngine(b, 10_000, false)
	before := e.DMLRowsVisited()
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("UPDATE t SET val = val + 1 WHERE id = %d", i%10_000))
	}
	b.ReportMetric(float64(e.DMLRowsVisited()-before)/float64(b.N), "rows-visited/op")
}

// BenchmarkUpdateFullScan is the unindexed counterpart — the predicate
// matches nothing, so all the time goes into visiting every live row.
func BenchmarkUpdateFullScan(b *testing.B) {
	e, s := benchEngine(b, 10_000, false)
	before := e.DMLRowsVisited()
	for i := 0; i < b.N; i++ {
		s.MustExec("UPDATE t SET val = 0 WHERE val < -1")
	}
	b.ReportMetric(float64(e.DMLRowsVisited()-before)/float64(b.N), "rows-visited/op")
}

// BenchmarkDeleteIndexed deletes through the hash index: each iteration
// inserts one row into an otherwise-empty bucket, then deletes it by the
// indexed column.
func BenchmarkDeleteIndexed(b *testing.B) {
	e, s := benchEngine(b, 10_000, true)
	before := e.DMLRowsVisited()
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 77, 0.0, 'x')", 100_000+i))
		s.MustExec("DELETE FROM t WHERE grp = 77")
	}
	b.ReportMetric(float64(e.DMLRowsVisited()-before)/float64(b.N), "rows-visited/op")
}

// BenchmarkPlanCacheHit executes one hot statement: every iteration after
// the first skips the lexer, parser, and planner. Compare with
// BenchmarkPlanCacheCold, which varies the SQL text so each execution
// parses and plans from scratch.
func BenchmarkPlanCacheHit(b *testing.B) {
	e, s := benchEngine(b, 5000, true)
	const q = "SELECT name FROM t WHERE grp = 7 ORDER BY val DESC LIMIT 5"
	s.MustExec(q) // warm the cache
	h0 := e.PlanCacheSnapshot().Hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustExec(q)
	}
	b.StopTimer()
	if h1 := e.PlanCacheSnapshot().Hits; h1-h0 != int64(b.N) {
		b.Fatalf("want %d cache hits, got %d", b.N, h1-h0)
	}
}

func BenchmarkPlanCacheCold(b *testing.B) {
	_, s := benchEngine(b, 5000, true)
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("SELECT name FROM t WHERE grp = 7 ORDER BY val DESC LIMIT %d", 5+i))
	}
}

func BenchmarkTransactionCommit(b *testing.B) {
	_, s := benchEngine(b, 1000, false)
	for i := 0; i < b.N; i++ {
		s.MustExec("BEGIN")
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 1.0, 'x')", 100_000+i))
		s.MustExec(fmt.Sprintf("UPDATE t SET val = val + 1 WHERE id = %d", 100_000+i))
		s.MustExec("COMMIT")
	}
}

func BenchmarkTransactionRollback(b *testing.B) {
	_, s := benchEngine(b, 1000, false)
	for i := 0; i < b.N; i++ {
		s.MustExec("BEGIN")
		s.MustExec("UPDATE t SET val = val * 1.01 WHERE grp < 10")
		s.MustExec("ROLLBACK")
	}
}

// durableBenchEngine opens a WAL-backed engine in a fresh temp dir with one
// table, cleaned up when the benchmark ends.
func durableBenchEngine(b *testing.B, mode SyncMode) *Engine {
	b.Helper()
	e, err := OpenEngine(b.TempDir(), Options{Sync: mode, CheckpointEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = e.Close() })
	e.NewSession("root").MustExec(`CREATE TABLE t (id INT PRIMARY KEY, val REAL)`)
	b.ResetTimer()
	return e
}

// BenchmarkCommitDurableAlways is the single-fsync baseline: every commit
// pays its own fsync before it is acknowledged.
func BenchmarkCommitDurableAlways(b *testing.B) {
	e := durableBenchEngine(b, SyncAlways)
	s := e.NewSession("root")
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0)", i))
	}
}

// BenchmarkCommitDurableBatch measures group commit under concurrency:
// parallel sessions enqueue commits and share fsyncs, but each still waits
// for its group's fsync before returning.
func BenchmarkCommitDurableBatch(b *testing.B) {
	e := durableBenchEngine(b, SyncBatch)
	var next atomic.Int64
	// ~16 committing goroutines regardless of GOMAXPROCS (RunParallel spawns
	// p*GOMAXPROCS): group commit is about concurrent *commits*, not CPU
	// parallelism.
	b.SetParallelism(max(1, (16+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
	b.RunParallel(func(pb *testing.PB) {
		s := e.NewSession("root")
		for pb.Next() {
			s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0)", next.Add(1)))
		}
	})
}

// BenchmarkCommitDurableOff writes commits to the OS page cache only.
func BenchmarkCommitDurableOff(b *testing.B) {
	e := durableBenchEngine(b, SyncOff)
	s := e.NewSession("root")
	for i := 0; i < b.N; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0)", i))
	}
}

// BenchmarkMetricsOverhead runs the engine's three hottest paths with metric
// recording on (the default) and off (stats.SetEnabled(false)): a sequential
// scan, a plan-cache hit, and durable inserts group-committed by 16
// sessions. Recording costs a few atomic adds per operation, well below
// run-to-run noise, so compare on against off over -count runs (benchstat)
// rather than from a single pair.
func BenchmarkMetricsOverhead(b *testing.B) {
	defer stats.SetEnabled(true)
	recording := func(b *testing.B, body func(b *testing.B)) {
		for _, on := range []bool{true, false} {
			name := "on"
			if !on {
				name = "off"
			}
			b.Run(name, func(b *testing.B) {
				stats.SetEnabled(on)
				body(b)
			})
		}
	}
	b.Run("SeqScan", func(b *testing.B) {
		_, s := benchEngine(b, 5000, false)
		recording(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MustExec("SELECT COUNT(*) FROM t WHERE grp = 7")
			}
		})
	})
	b.Run("PlanCacheHit", func(b *testing.B) {
		_, s := benchEngine(b, 5000, false)
		const hot = "SELECT val FROM t WHERE id = 42"
		s.MustExec(hot)
		recording(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MustExec(hot)
			}
		})
	})
	b.Run("CommitBatch16", func(b *testing.B) {
		e := durableBenchEngine(b, SyncBatch)
		var next atomic.Int64
		recording(b, func(b *testing.B) {
			b.SetParallelism(max(1, (16+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
			b.RunParallel(func(pb *testing.PB) {
				s := e.NewSession("root")
				for pb.Next() {
					s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0)", next.Add(1)))
				}
			})
		})
	})
}

// BenchmarkRecoveryReplay times crash recovery against the length of the WAL
// tail. An engine commits one single-row insert per frame with checkpoints
// off, and a process-kill crash image is taken before it closes; every
// iteration reopens a fresh copy of that image (snapshot load plus replay of
// the whole tail) and checks that every committed row survived.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, frames := range []int{500, 5000, 20000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			fs := vfs.NewFaultFS()
			e, err := OpenEngine("/db", Options{Sync: SyncOff, CheckpointEvery: -1, FS: fs})
			if err != nil {
				b.Fatal(err)
			}
			s := e.NewSession("root")
			s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, val REAL)`)
			for i := 0; i < frames; i++ {
				s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1.0)", i))
			}
			img := fs.CrashImage(vfs.TearKill, 1)
			_ = e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Recovery truncates and sweeps what it opens, so each
				// iteration gets its own copy of the wreckage.
				b.StopTimer()
				cp := img.CrashImage(vfs.TearKill, 1)
				b.StartTimer()
				re, err := OpenEngine("/db", Options{Sync: SyncOff, CheckpointEvery: -1, FS: cp})
				if err != nil {
					b.Fatalf("recovery with %d frames: %v", frames, err)
				}
				b.StopTimer()
				if got := re.NewSession("root").MustExec("SELECT COUNT(*) FROM t").Rows[0][0].I; got != int64(frames) {
					b.Fatalf("recovery with %d frames: %d rows survived", frames, got)
				}
				_ = re.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
