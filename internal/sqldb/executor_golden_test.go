package sqldb

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateExecutorGolden = flag.Bool("update-executor-golden", false, "rewrite testdata/executor_golden.json from this build's single-worker answers")

// goldenAnswer is what one statement returned: columns, row count, a digest
// over every cell (kind-tagged, floats in their shortest exact form, so SUM
// and AVG are pinned to the bit) and the first rows in readable form. A
// failing statement records its error text instead.
type goldenAnswer struct {
	Columns []string `json:"columns,omitempty"`
	Rows    int      `json:"rows"`
	Digest  string   `json:"digest,omitempty"`
	Head    []string `json:"head,omitempty"`
	Err     string   `json:"err,omitempty"`
}

func answerOf(res *Result, err error) goldenAnswer {
	if err != nil {
		return goldenAnswer{Err: err.Error()}
	}
	a := goldenAnswer{Columns: res.Columns, Rows: len(res.Rows)}
	h := sha256.New()
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			fmt.Fprintf(h, "%d:%s\x00", v.Kind, v.String())
			cells[j] = v.SQLLiteral()
		}
		h.Write([]byte{'\n'})
		if i < 3 {
			a.Head = append(a.Head, strings.Join(cells, " | "))
		}
	}
	a.Digest = hex.EncodeToString(h.Sum(nil))
	return a
}

// newGoldenEngine is newParallelEngine plus a 20-row lookup table and a
// view, so correlated subqueries stay cheap per outer row and the view
// fallback of the scan is covered.
func newGoldenEngine(t testing.TB, seed int64) *Engine {
	t.Helper()
	e := newParallelEngine(t, seed)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE t3 (grp INT PRIMARY KEY, label TEXT)")
	insertBatch(s, "t3", 20, func(i int) string {
		if i%7 == 3 {
			return fmt.Sprintf("(%d, NULL)", i)
		}
		return fmt.Sprintf("(%d, 'L%02d')", i, (i*13)%20)
	})
	s.MustExec("CREATE VIEW v1 AS SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM t1 GROUP BY grp")
	return e
}

// goldenExtraQueries are the cases the row-at-a-time operators alone used to
// serve, or served differently from the batched ones: correlation and
// subqueries over a table above the threshold, zero-row aggregation, sort
// keys outside the select list, nested-loop joins with residuals, name
// resolution corner cases, and errors raised mid-operator.
var goldenExtraQueries = []string{
	// Correlated and uncorrelated subqueries over t1 (3,000 rows).
	"SELECT id, (SELECT label FROM t3 WHERE t3.grp = t1.grp) FROM t1 WHERE val < 900.0",
	"SELECT id FROM t1 WHERE val > (SELECT AVG(grp) FROM t3 WHERE t3.grp <= t1.grp) * 40",
	"SELECT id, grp FROM t1 WHERE grp IN (SELECT grp FROM t3 WHERE label IS NOT NULL)",
	"SELECT id FROM t1 WHERE id < 400 AND id IN (SELECT t2.id FROM t2 WHERE t2.grp = t1.grp)",
	"SELECT id FROM t1 WHERE grp NOT IN (SELECT grp FROM t3 WHERE grp < 15)",
	"SELECT (SELECT COUNT(*) FROM t3), 1 + 2, UPPER('x')",
	// Aggregate arguments and HAVING that hold subqueries.
	"SELECT grp, SUM((SELECT t3.grp FROM t3 WHERE t3.grp = t1.grp)) FROM t1 GROUP BY grp",
	"SELECT MAX((SELECT label FROM t3 WHERE t3.grp = t1.grp)) FROM t1",
	"SELECT grp, COUNT(*) FROM t1 GROUP BY grp HAVING COUNT(*) > (SELECT COUNT(*) FROM t3) * 7",
	"SELECT grp, AVG(val) FROM t1 GROUP BY grp HAVING grp IN (SELECT grp FROM t3 WHERE label IS NOT NULL)",
	// Zero input rows, with and without GROUP BY.
	"SELECT COUNT(*) FROM t1 WHERE val < 0",
	"SELECT SUM(val) FROM t1 WHERE val < 0",
	"SELECT COUNT(*), SUM(val), MIN(name), id FROM t1 WHERE val < 0",
	"SELECT grp, COUNT(*) FROM t1 WHERE val < 0 GROUP BY grp",
	"SELECT grp, SUM(val) FROM t1 WHERE val < 0 GROUP BY grp",
	"SELECT COUNT(*) FROM t1 WHERE val < 0 HAVING COUNT(*) > 0",
	"SELECT id, name FROM t1 WHERE id < 0",
	// Aggregation shapes.
	"SELECT COUNT(*), COUNT(name), COUNT(DISTINCT name), SUM(val), AVG(val) FROM t1",
	"SELECT grp, name, COUNT(*) FROM t1 GROUP BY grp",
	"SELECT grp % 4, name, SUM(val), MAX(id) FROM t1 GROUP BY grp % 4, name",
	"SELECT SUM(*) FROM t1",
	// Sort keys: outside the select list, aliases, ordinals, aggregates, NULLs.
	"SELECT DISTINCT grp FROM t1 ORDER BY val",
	"SELECT DISTINCT grp FROM t1 ORDER BY val DESC, id",
	"SELECT id, val * 2 AS dbl FROM t1 WHERE grp = 3 ORDER BY dbl DESC, id",
	"SELECT name, grp FROM t1 WHERE id < 200 ORDER BY 2 DESC, 1",
	"SELECT grp, COUNT(*) FROM t1 GROUP BY grp ORDER BY COUNT(*) DESC, grp",
	"SELECT grp, AVG(val) AS a FROM t1 GROUP BY grp ORDER BY a",
	"SELECT grp FROM t1 GROUP BY grp ORDER BY SUM(val) DESC LIMIT 5",
	"SELECT id FROM t1 WHERE grp = 5 ORDER BY val + id DESC",
	"SELECT id, name FROM t1 WHERE id < 100 ORDER BY name, id",
	"SELECT id, name FROM t1 WHERE id < 100 ORDER BY name DESC, id DESC LIMIT 20 OFFSET 5",
	"SELECT * FROM t1 ORDER BY val, id LIMIT 12",
	"SELECT * FROM t2 ORDER BY 9",
	"SELECT id FROM t2 ORDER BY 0",
	"SELECT id FROM t1 ORDER BY nosuch",
	// Joins: nested loop with a residual, comma join, views, self-joins.
	"SELECT t1.id, t3.label FROM t1 LEFT JOIN t3 ON t1.grp = t3.grp AND t3.label IS NOT NULL WHERE t1.id < 300",
	"SELECT t2.id, t3.label FROM t2, t3 WHERE t2.grp = t3.grp AND t2.id + t3.grp > 100",
	"SELECT t2.id, t3.grp FROM t2 JOIN t3 ON t2.grp < t3.grp WHERE t2.id < 30",
	"SELECT t1.*, t3.label FROM t1 JOIN t3 ON t1.grp = t3.grp WHERE t1.id < 50 ORDER BY t1.id",
	"SELECT * FROM v1 WHERE n > 100 ORDER BY grp",
	"SELECT v1.n, t3.label FROM v1 JOIN t3 ON v1.grp = t3.grp",
	"SELECT a.id, b.grp FROM t2 a JOIN t2 b ON a.id = b.id WHERE a.grp < 3",
	"SELECT id FROM t1 a JOIN t1 b ON a.id = b.id",
	"SELECT COUNT(*) FROM t2 JOIN t2 ON t2.id = t2.id WHERE t2.grp = 3",
	"SELECT nosuch FROM t1",
	"SELECT t9.id FROM t1",
	// Errors raised part-way through an operator.
	"SELECT id FROM t1 WHERE val / (id - 10) > 1.0",
	"SELECT 100 / (id - 1500) FROM t1",
	"SELECT COUNT(*) FROM t1 GROUP BY 10 / (id - 2000)",
	"SELECT SUM(10 / (id - 2500)) FROM t1",
	"SELECT grp FROM t1 GROUP BY grp HAVING 1 / (grp - 6) > 0",
	"SELECT id FROM t1 ORDER BY 1 / (id - 7)",
	"SELECT id FROM t1 WHERE grp = (SELECT grp FROM t3)",
}

func goldenQueries() []string {
	return append(append([]string{}, equivalenceQueries...), goldenExtraQueries...)
}

func goldenAnswers(s *Session) map[string]goldenAnswer {
	out := map[string]goldenAnswer{}
	for _, q := range goldenQueries() {
		out[q] = answerOf(s.Exec(q))
	}
	return out
}

var goldenSeeds = []int64{1, 42}

func goldenPath() string { return filepath.Join("testdata", "executor_golden.json") }

func writeExecutorGolden(t *testing.T, all map[string]map[string]goldenAnswer) {
	t.Helper()
	raw, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParallelSequentialEquivalence holds the one executor to the answers of
// the executor it replaced. testdata/executor_golden.json was captured at
// 3c812ac from a SetParallel(false) session — every operator on the
// row-at-a-time twin — before that twin was deleted. Each statement now runs
// at one worker, at four, at the engine defaults and under the forced
// seq-scan plans, and all four must give the recorded columns, rows (to the
// bit) or error text. Run with -race this is also the data-race check on the
// morsel workers.
func TestParallelSequentialEquivalence(t *testing.T) {
	modes := []struct {
		name               string
		workers, threshold int
		forced             bool
	}{
		{"1 worker", 1, 64, false},
		{"4 workers", 4, 64, false},
		{"defaults", 0, 0, false},
		{"forceSeqScan", 4, 64, true},
	}
	var golden map[string]map[string]goldenAnswer
	if !*updateExecutorGolden {
		raw, err := os.ReadFile(goldenPath())
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	updated := map[string]map[string]goldenAnswer{}
	for _, seed := range goldenSeeds {
		key := fmt.Sprintf("seed %d", seed)
		e := newGoldenEngine(t, seed)
		for _, m := range modes {
			e.SetParallelism(m.workers, m.threshold)
			s := e.NewSession("root")
			s.forceSeqScan = m.forced
			got := goldenAnswers(s)
			if *updateExecutorGolden {
				if updated[key] == nil {
					updated[key] = got
				}
				continue
			}
			for _, q := range goldenQueries() {
				want, ok := golden[key][q]
				if !ok {
					t.Errorf("%s: no golden answer for %q (run with -update-executor-golden)", key, q)
					continue
				}
				if !reflect.DeepEqual(got[q], want) {
					t.Errorf("%s, %s: %q\n got %+v\nwant %+v", key, m.name, q, got[q], want)
				}
			}
		}
	}
	if *updateExecutorGolden {
		writeExecutorGolden(t, updated)
	}
}
