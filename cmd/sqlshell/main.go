// Command sqlshell is an interactive shell over the embedded sqldb engine.
// By default it starts with the BIRD-Ext benchmark database loaded in
// memory and a superuser session; with -data it opens (or creates) a
// persistent database instead — every committed statement is written to a
// write-ahead log under the directory and the full state survives restarts.
// Use \user to switch identities and exercise the privilege system.
//
// Usage:
//
//	sqlshell [-seed N] [-data DIR] [-sync off|batch|always] [-metrics ADDR]
//
// With -metrics, an HTTP listener serves the engine's stats as Prometheus
// text exposition at /metrics and as JSON at /stats.json.
//
// Meta commands:
//
//	\d              list tables
//	\d <table>      show a table's DDL
//	\user <name>    switch the session user
//	\grant <user> <action> <table>   grant a privilege (superuser)
//	\cache          show plan-cache hit/miss/eviction counters and size
//	\stats          show the engine-wide metrics snapshot
//	\slowlog [ms]   show slow queries; with ms, set the threshold
//	\wal            show durability stats and fail-stop/degraded state
//	\checkpoint     force a snapshot + WAL truncation (persistent mode)
//	\q              quit (persistent mode: checkpoint and close cleanly)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bridgescope/internal/bench/birdext"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/sqldb/stats/httpexport"
)

func main() {
	seed := flag.Int64("seed", 42, "benchmark data seed")
	data := flag.String("data", "", "persistent database directory (empty = in-memory BIRD-Ext)")
	syncMode := flag.String("sync", "batch", "WAL sync mode with -data: off, batch (group commit), always")
	metrics := flag.String("metrics", "", "serve Prometheus/JSON stats over HTTP at this address (e.g. :8181)")
	flag.Parse()

	var engine *sqldb.Engine
	if *data != "" {
		mode, ok := sqldb.ParseSyncMode(*syncMode)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -sync mode %q (want off, batch, or always)\n", *syncMode)
			os.Exit(1)
		}
		var err error
		engine, err = sqldb.OpenEngine(*data, sqldb.Options{Sync: mode})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer engine.Close()
		n := len(engine.TableNames())
		fmt.Printf("sqlshell — persistent database at %s (sync=%s, %d table(s) recovered, user: root)\n",
			*data, mode, n)
	} else {
		engine = birdext.BuildEngine(*seed)
		fmt.Println("sqlshell — embedded engine with the BIRD-Ext database (user: root)")
	}
	if *metrics != "" {
		errc := httpexport.ListenAndServe(*metrics, engine.Stats)
		select {
		case err := <-errc:
			fmt.Fprintln(os.Stderr, "metrics listener:", err)
			os.Exit(1)
		case <-time.After(50 * time.Millisecond):
			fmt.Printf("metrics: http://%s/metrics (Prometheus) and /stats.json\n", *metrics)
		}
	}
	session := engine.NewSession("root")
	fmt.Println(`type SQL terminated by newline, \d to list tables, \q to quit`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Printf("%s@%s> ", session.User(), engine.Name)
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if done := metaCommand(engine, &session, line); done {
				return
			}
			continue
		}
		res, err := session.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			if sqldb.IsRetryable(err) {
				fmt.Println("hint: a concurrent transaction wrote the same rows; ROLLBACK and retry the transaction")
			}
			continue
		}
		fmt.Println(res.Text())
	}
}

// metaCommand handles backslash commands; returns true on quit.
func metaCommand(engine *sqldb.Engine, session **sqldb.Session, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\q`:
		return true
	case `\d`:
		if len(fields) == 1 {
			for _, name := range engine.TableNames() {
				t, _ := engine.Table(name)
				fmt.Printf("%-12s (%d rows)\n", name, t.RowCount())
			}
			return false
		}
		t, ok := engine.Table(fields[1])
		if !ok {
			fmt.Printf("no table %q\n", fields[1])
			return false
		}
		fmt.Println(sqldb.SchemaSQL(t))
	case `\user`:
		if len(fields) != 2 {
			fmt.Println("usage: \\user <name>")
			return false
		}
		*session = engine.NewSession(fields[1])
		fmt.Printf("now acting as %q\n", fields[1])
	case `\grant`:
		if len(fields) != 4 {
			fmt.Println("usage: \\grant <user> <action> <table>")
			return false
		}
		action, ok := sqldb.ParseAction(fields[2])
		if !ok {
			fmt.Printf("unknown action %q\n", fields[2])
			return false
		}
		engine.Grants().Grant(fields[1], action, fields[3])
		fmt.Println("granted")
	case `\cache`:
		cs := engine.PlanCacheSnapshot()
		total := cs.Hits + cs.Misses
		ratio := 0.0
		if total > 0 {
			ratio = float64(cs.Hits) / float64(total)
		}
		fmt.Printf("plan cache: %d hits, %d misses (%.0f%% hit rate), %d evictions, %d cached plans, catalog version %d\n",
			cs.Hits, cs.Misses, ratio*100, cs.Evictions, cs.Size, engine.CatalogVersion())
	case `\stats`:
		printStatsSnapshot(engine.Stats())
	case `\slowlog`:
		if len(fields) == 2 {
			ms, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				fmt.Println("usage: \\slowlog [threshold-ms]")
				return false
			}
			engine.SetSlowQueryThreshold(time.Duration(ms * float64(time.Millisecond)))
			fmt.Printf("slow-query threshold set to %s\n", engine.SlowQueryThreshold())
			return false
		}
		entries := engine.SlowQueries()
		fmt.Printf("slow-query log: threshold %s, %d retained\n", engine.SlowQueryThreshold(), len(entries))
		for _, q := range entries {
			fmt.Printf("-- %s user=%s dur=%.3fms rows=%d retries=%d\n   %s\n",
				q.Time.Format("15:04:05.000"), q.User,
				float64(q.DurationNs)/1e6, q.Rows, q.Retries, q.SQL)
			if q.Plan != "" {
				for _, line := range strings.Split(q.Plan, "\n") {
					fmt.Println("   | " + line)
				}
			}
		}
	case `\wal`:
		st := engine.Durability()
		if !st.Durable {
			fmt.Println("durability: in-memory engine (no WAL; start with -data DIR to persist)")
			return false
		}
		fmt.Printf("durability: dir=%s sync=%s\n", st.Dir, st.Mode)
		fmt.Printf("  commits %d (records %d), lsn %d\n", st.Commits, st.Records, st.LSN)
		fmt.Printf("  fsyncs %d, group flushes %d", st.Fsyncs, st.GroupFlushes)
		if st.GroupFlushes > 0 {
			fmt.Printf(" (%.1f commits/fsync)", float64(st.Commits)/float64(st.GroupFlushes))
		}
		fmt.Println()
		fmt.Printf("  wal segment %d (%d bytes, %d appended total), checkpoints %d\n",
			st.Segment, st.WALSize, st.WALBytes, st.Checkpoints)
		if h := engine.Health(); h.Degraded {
			fmt.Printf("  STATE: fail-stopped, read-only (degraded by %s: %s)\n", h.DegradedBy, h.DegradedErr)
			fmt.Printf("  %s\n", h.Reason)
		} else {
			fmt.Println("  state: healthy (read-write)")
		}
	case `\checkpoint`:
		if !engine.Durability().Durable {
			fmt.Println("durability: in-memory engine (no WAL; start with -data DIR to persist)")
			return false
		}
		// MVCC snapshots serialize only committed-visible versions, so a
		// checkpoint proceeds even while transactions are open.
		if err := engine.Checkpoint(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("checkpointed")
		}
		if h := engine.Health(); h.LastCheckpointErr != "" {
			fmt.Printf("last checkpoint error: %s\n", h.LastCheckpointErr)
		}
	default:
		fmt.Printf("unknown command %s\n", fields[0])
	}
	return false
}

// printStatsSnapshot renders the engine-wide metrics snapshot for \stats.
func printStatsSnapshot(s stats.Snapshot) {
	fmt.Printf("metrics: enabled=%v\n", s.Enabled)
	fmt.Println("statements:")
	for _, kind := range []string{"select", "insert", "update", "delete", "txn", "ddl", "other"} {
		h, ok := s.Statements[kind]
		if !ok {
			continue
		}
		fmt.Printf("  %-7s %8d calls, mean %s, p50 %s, p99 %s\n",
			kind, h.Count, fmtNs(h.Mean()), fmtNs(float64(h.Quantile(0.5))), fmtNs(float64(h.Quantile(0.99))))
	}
	fmt.Printf("rows: scanned %d, dml-visited %d, returned %d\n",
		s.RowsScanned, s.DMLRowsVisited, s.RowsReturned)
	fmt.Printf("plan cache: %d hits, %d misses, %d evictions, %d cached\n",
		s.PlanCache.Hits, s.PlanCache.Misses, s.PlanCache.Evictions, s.PlanCache.Size)
	if s.WAL.Durable {
		fmt.Printf("wal: %d commits, %d fsyncs (mean %s), append mean %s, group-commit mean %.1f commits/flush\n",
			s.WAL.Commits, s.WAL.Fsyncs, fmtNs(s.WAL.FsyncNs.Mean()),
			fmtNs(s.WAL.AppendNs.Mean()), s.WAL.BatchCommits.Mean())
		fmt.Printf("checkpoints: %d (mean %s)\n", s.Checkpoint.Count, fmtNs(s.Checkpoint.DurationNs.Mean()))
	} else {
		fmt.Println("wal: in-memory engine (no WAL)")
	}
	fmt.Printf("mvcc: %d conflicts, %d aborts, %d retries, %d open txns, gc horizon lag %d\n",
		s.MVCC.Conflicts, s.MVCC.Aborts, s.MVCC.Retries, s.MVCC.OpenTxns, s.MVCC.GCHorizonLag)
	fmt.Printf("locks: %d table, %d global acquires, max %d concurrent writers, wait mean %s\n",
		s.Locks.TableAcquires, s.Locks.GlobalAcquires, s.Locks.MaxConcurrentWriters, fmtNs(s.Locks.WaitNs.Mean()))
	fmt.Printf("parallel: %d batches, %d morsels, workers mean %.1f\n",
		s.Parallel.Batches, s.Parallel.Morsels, s.Parallel.Workers.Mean())
	if s.Health.Degraded {
		fmt.Printf("health: DEGRADED (%s), %d transitions\n", s.Health.Reason, s.Health.Transitions)
	} else {
		fmt.Println("health: ok")
	}
	fmt.Printf("slow queries: %d over %s (\\slowlog to list)\n",
		s.SlowLog.Total, time.Duration(s.SlowLog.ThresholdNs))
}

// fmtNs renders a nanosecond quantity in a human unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
