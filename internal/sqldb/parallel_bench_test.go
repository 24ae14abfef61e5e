package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// benchParallelEngine builds a 40k-row fact table and a 64-row dimension
// table on an engine whose operators may use up to workers goroutines.
func benchParallelEngine(b *testing.B, workers int) *Session {
	b.Helper()
	e := NewEngine("parbench")
	e.SetParallelism(workers, 1024)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE big (id INT PRIMARY KEY, grp INT, val REAL)")
	s.MustExec("CREATE TABLE dim (id INT PRIMARY KEY, label TEXT)")
	const rows = 40000
	const batch = 500
	for start := 0; start < rows; start += batch {
		vals := make([]string, 0, batch)
		for i := start; i < start+batch; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d.5)", i, i%64, i%10000))
		}
		s.MustExec("INSERT INTO big VALUES " + strings.Join(vals, ", "))
	}
	var dims []string
	for i := 0; i < 64; i++ {
		dims = append(dims, fmt.Sprintf("(%d, 'g%d')", i, i))
	}
	s.MustExec("INSERT INTO dim VALUES " + strings.Join(dims, ", "))
	return s
}

func benchQuery(b *testing.B, s *Session, sql string) {
	b.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExecStmt(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFanOut runs one query over the same morsel loop at one worker and at
// four: the difference is what fan-out buys on this host (nothing on one CPU).
func benchFanOut(b *testing.B, sql string) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchQuery(b, benchParallelEngine(b, workers), sql)
		})
	}
}

func BenchmarkParallelSeqScan(b *testing.B) {
	benchFanOut(b, "SELECT COUNT(*) FROM big WHERE val < 2500.0")
}

func BenchmarkParallelGroupBy(b *testing.B) {
	benchFanOut(b, "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM big GROUP BY grp")
}

func BenchmarkParallelHashJoin(b *testing.B) {
	benchFanOut(b, "SELECT COUNT(*) FROM big JOIN dim ON big.grp = dim.id WHERE big.val < 5000.0")
}
