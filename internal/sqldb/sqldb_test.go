package sqldb

import (
	"errors"
	"strings"
	"testing"
)

// newTestEngine builds a small retail schema used across the tests.
func newTestEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := NewEngine("testdb")
	root := e.NewSession("root")
	stmts := []string{
		`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, price REAL, category TEXT)`,
		`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT NOT NULL, amount REAL, day INT)`,
		`INSERT INTO items (id, name, price, category) VALUES
			(1, 'shirt', 19.99, 'clothes'),
			(2, 'jeans', 49.5, 'clothes'),
			(3, 'mug', 7.25, 'kitchen'),
			(4, 'pan', 24.0, 'kitchen'),
			(5, 'socks', 4.75, 'clothes')`,
		`INSERT INTO sales (order_id, item_id, qty, amount, day) VALUES
			(100, 1, 2, 39.98, 1),
			(101, 2, 1, 49.5, 1),
			(102, 3, 4, 29.0, 2),
			(103, 1, 1, 19.99, 2),
			(104, 5, 3, 14.25, 3)`,
	}
	for _, s := range stmts {
		if _, err := root.Exec(s); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return e, root
}

func mustQuery(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	r, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func TestSelectAll(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT * FROM items`)
	if len(r.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(r.Rows))
	}
	if len(r.Columns) != 4 || r.Columns[0] != "id" {
		t.Fatalf("unexpected columns %v", r.Columns)
	}
}

func TestSelectWhere(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name FROM items WHERE category = 'clothes' AND price < 20`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(r.Rows), r.Rows)
	}
}

func TestSelectOrderLimit(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name, price FROM items ORDER BY price DESC LIMIT 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(r.Rows))
	}
	if r.Rows[0][0].S != "jeans" || r.Rows[1][0].S != "pan" {
		t.Fatalf("wrong order: %v", r.Rows)
	}
}

func TestSelectOrderByOrdinalAndAlias(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name, price AS p FROM items ORDER BY 2 ASC LIMIT 1`)
	if r.Rows[0][0].S != "socks" {
		t.Fatalf("ordinal order wrong: %v", r.Rows)
	}
	r = mustQuery(t, s, `SELECT name, price AS p FROM items ORDER BY p ASC LIMIT 1`)
	if r.Rows[0][0].S != "socks" {
		t.Fatalf("alias order wrong: %v", r.Rows)
	}
}

// TestOrderByOrdinalRangeIgnoresData: an out-of-range ORDER BY position is an
// error of the statement, whether or not any row reaches the sort.
func TestOrderByOrdinalRangeIgnoresData(t *testing.T) {
	_, s := newTestEngine(t)
	_, withRows := s.Exec(`SELECT id FROM items ORDER BY 5`)
	_, noRows := s.Exec(`SELECT id FROM items WHERE id < 0 ORDER BY 5`)
	const want = "ORDER BY position 5 is out of range"
	if withRows == nil || withRows.Error() != want {
		t.Fatalf("with rows: got %v, want %q", withRows, want)
	}
	if noRows == nil || noRows.Error() != want {
		t.Fatalf("over an empty result: got %v, want %q", noRows, want)
	}
}

func TestAggregates(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(qty) FROM items, sales WHERE items.id = sales.item_id`)
	if len(r.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(r.Rows))
	}
	if r.Rows[0][0].I != 5 {
		t.Fatalf("COUNT(*) = %v, want 5", r.Rows[0][0])
	}
}

func TestGroupByHaving(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT category, COUNT(*) AS n, AVG(price) FROM items GROUP BY category HAVING COUNT(*) >= 2 ORDER BY n DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 groups, got %d: %v", len(r.Rows), r.Rows)
	}
	if r.Rows[0][0].S != "clothes" || r.Rows[0][1].I != 3 {
		t.Fatalf("wrong group: %v", r.Rows[0])
	}
}

func TestJoinInner(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT items.name, sales.qty FROM sales JOIN items ON sales.item_id = items.id WHERE sales.day = 1 ORDER BY sales.order_id`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(r.Rows))
	}
	if r.Rows[0][0].S != "shirt" {
		t.Fatalf("join wrong: %v", r.Rows)
	}
}

func TestJoinLeft(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT items.name, sales.order_id FROM items LEFT JOIN sales ON items.id = sales.item_id ORDER BY items.id`)
	// 4 items with sales rows (shirt twice) + pan with no sale = 6 rows.
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 rows, got %d: %v", len(r.Rows), r.Rows)
	}
	foundNull := false
	for _, row := range r.Rows {
		if row[0].S == "pan" && row[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatalf("left join did not keep unmatched row: %v", r.Rows)
	}
}

func TestDistinct(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT DISTINCT category FROM items ORDER BY category`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(r.Rows))
	}
}

func TestInBetweenLike(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name FROM items WHERE id IN (1, 3, 5) ORDER BY id`)
	if len(r.Rows) != 3 {
		t.Fatalf("IN: want 3 rows, got %d", len(r.Rows))
	}
	r = mustQuery(t, s, `SELECT name FROM items WHERE price BETWEEN 5 AND 25 ORDER BY id`)
	if len(r.Rows) != 3 {
		t.Fatalf("BETWEEN: want 3 rows, got %d: %v", len(r.Rows), r.Rows)
	}
	r = mustQuery(t, s, `SELECT name FROM items WHERE name LIKE 's%'`)
	if len(r.Rows) != 2 {
		t.Fatalf("LIKE: want 2 rows, got %d", len(r.Rows))
	}
}

func TestSubqueryIn(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name FROM items WHERE id IN (SELECT item_id FROM sales WHERE day = 2) ORDER BY id`)
	if len(r.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d: %v", len(r.Rows), r.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name FROM items WHERE price = (SELECT MAX(price) FROM items)`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "jeans" {
		t.Fatalf("scalar subquery wrong: %v", r.Rows)
	}
}

func TestInsertDefaultsAndNotNull(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE TABLE t (a INT PRIMARY KEY, b TEXT DEFAULT 'x', c INT)`)
	s.MustExec(`INSERT INTO t (a) VALUES (1)`)
	r := mustQuery(t, s, `SELECT b, c FROM t WHERE a = 1`)
	if r.Rows[0][0].S != "x" || !r.Rows[0][1].IsNull() {
		t.Fatalf("defaults wrong: %v", r.Rows)
	}
	if _, err := s.Exec(`INSERT INTO items (id, name) VALUES (99, NULL)`); err == nil {
		t.Fatal("want NOT NULL violation")
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`INSERT INTO items (id, name) VALUES (1, 'dup')`); err == nil {
		t.Fatal("want PK violation")
	}
}

func TestUniqueConstraint(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)`)
	s.MustExec(`INSERT INTO u VALUES (1, 'a@x.com')`)
	if _, err := s.Exec(`INSERT INTO u VALUES (2, 'a@x.com')`); err == nil {
		t.Fatal("want unique violation")
	}
	// NULLs do not collide.
	s.MustExec(`INSERT INTO u VALUES (3, NULL)`)
	s.MustExec(`INSERT INTO u VALUES (4, NULL)`)
}

func TestForeignKeyChecks(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`INSERT INTO sales VALUES (200, 999, 1, 5.0, 4)`); err == nil {
		t.Fatal("want FK violation on insert")
	}
	if _, err := s.Exec(`DELETE FROM items WHERE id = 1`); err == nil {
		t.Fatal("want FK RESTRICT on parent delete")
	}
	// Deleting a parent with no children is fine.
	s.MustExec(`DELETE FROM items WHERE id = 4`)
}

func TestUpdateBasic(t *testing.T) {
	_, s := newTestEngine(t)
	r := s.MustExec(`UPDATE items SET price = price * 2 WHERE category = 'kitchen'`)
	if r.Affected != 2 {
		t.Fatalf("want 2 affected, got %d", r.Affected)
	}
	q := mustQuery(t, s, `SELECT price FROM items WHERE id = 3`)
	if q.Rows[0][0].F != 14.5 {
		t.Fatalf("update wrong: %v", q.Rows)
	}
}

func TestUpdatePKConflict(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`UPDATE items SET id = 2 WHERE id = 3`); err == nil {
		t.Fatal("want PK conflict on update")
	}
}

func TestDelete(t *testing.T) {
	_, s := newTestEngine(t)
	r := s.MustExec(`DELETE FROM sales WHERE day = 1`)
	if r.Affected != 2 {
		t.Fatalf("want 2 deleted, got %d", r.Affected)
	}
	q := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if q.Rows[0][0].I != 3 {
		t.Fatalf("want 3 remaining, got %v", q.Rows[0][0])
	}
}

func TestTransactionCommit(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`BEGIN`)
	s.MustExec(`INSERT INTO items (id, name, price, category) VALUES (10, 'hat', 9.0, 'clothes')`)
	s.MustExec(`UPDATE items SET price = 10.0 WHERE id = 10`)
	s.MustExec(`COMMIT`)
	r := mustQuery(t, s, `SELECT price FROM items WHERE id = 10`)
	if len(r.Rows) != 1 || r.Rows[0][0].F != 10.0 {
		t.Fatalf("commit lost data: %v", r.Rows)
	}
}

func TestTransactionRollback(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`BEGIN`)
	s.MustExec(`INSERT INTO items (id, name, price, category) VALUES (10, 'hat', 9.0, 'clothes')`)
	s.MustExec(`DELETE FROM sales WHERE order_id = 100`)
	s.MustExec(`UPDATE items SET price = 0 WHERE id = 1`)
	s.MustExec(`ROLLBACK`)
	r := mustQuery(t, s, `SELECT COUNT(*) FROM items`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("rollback failed: %v items", r.Rows[0][0])
	}
	r = mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("rollback failed: %v sales", r.Rows[0][0])
	}
	r = mustQuery(t, s, `SELECT price FROM items WHERE id = 1`)
	if r.Rows[0][0].F != 19.99 {
		t.Fatalf("rollback failed to restore update: %v", r.Rows)
	}
}

func TestTransactionDDLRollback(t *testing.T) {
	e, s := newTestEngine(t)
	s.MustExec(`BEGIN`)
	s.MustExec(`CREATE TABLE tmp (a INT PRIMARY KEY)`)
	s.MustExec(`INSERT INTO tmp VALUES (1)`)
	s.MustExec(`ROLLBACK`)
	if _, ok := e.Table("tmp"); ok {
		t.Fatal("rolled-back CREATE TABLE still visible")
	}
	s.MustExec(`BEGIN`)
	s.MustExec(`DROP TABLE sales`)
	s.MustExec(`ROLLBACK`)
	if _, ok := e.Table("sales"); !ok {
		t.Fatal("rolled-back DROP TABLE lost the table")
	}
	r := mustQuery(t, s, `SELECT COUNT(*) FROM sales`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("restored table lost rows: %v", r.Rows[0][0])
	}
}

func TestStatementAtomicity(t *testing.T) {
	_, s := newTestEngine(t)
	// The third row violates the PK; the whole INSERT must be undone.
	_, err := s.Exec(`INSERT INTO items (id, name) VALUES (20, 'a'), (21, 'b'), (1, 'dup')`)
	if err == nil {
		t.Fatal("want PK violation")
	}
	r := mustQuery(t, s, `SELECT COUNT(*) FROM items`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("partial insert leaked: %v", r.Rows[0][0])
	}
}

func TestBeginTwiceAndCommitWithout(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`BEGIN`)
	if _, err := s.Exec(`BEGIN`); err == nil {
		t.Fatal("want nested BEGIN error")
	}
	s.MustExec(`ROLLBACK`)
	if _, err := s.Exec(`COMMIT`); err == nil {
		t.Fatal("want COMMIT without txn error")
	}
}

func TestPrivileges(t *testing.T) {
	e, _ := newTestEngine(t)
	e.Grants().Grant("alice", ActionSelect, "items")
	alice := e.NewSession("alice")
	if _, err := alice.Exec(`SELECT * FROM items`); err != nil {
		t.Fatalf("granted select failed: %v", err)
	}
	_, err := alice.Exec(`SELECT * FROM sales`)
	var pe *PermissionError
	if !errors.As(err, &pe) {
		t.Fatalf("want PermissionError, got %v", err)
	}
	if _, err := alice.Exec(`INSERT INTO items (id, name) VALUES (50, 'x')`); err == nil {
		t.Fatal("want insert denied")
	}
	if _, err := alice.Exec(`DROP TABLE items`); err == nil {
		t.Fatal("want drop denied")
	}
	if _, err := alice.Exec(`GRANT SELECT ON sales TO alice`); err == nil {
		t.Fatal("want grant denied for non-superuser")
	}
}

func TestGrantRevokeSQL(t *testing.T) {
	e, root := newTestEngine(t)
	root.MustExec(`GRANT SELECT, INSERT ON items TO bob`)
	bob := e.NewSession("bob")
	bob.MustExec(`SELECT * FROM items`)
	bob.MustExec(`INSERT INTO items (id, name) VALUES (60, 'belt')`)
	root.MustExec(`REVOKE INSERT ON items FROM bob`)
	if _, err := bob.Exec(`INSERT INTO items (id, name) VALUES (61, 'tie')`); err == nil {
		t.Fatal("want revoked insert denied")
	}
}

func TestColumnPrivileges(t *testing.T) {
	e, _ := newTestEngine(t)
	e.Grants().GrantColumns("carol", ActionSelect, "items", []string{"id", "name"})
	carol := e.NewSession("carol")
	carol.MustExec(`SELECT id, name FROM items`)
	if _, err := carol.Exec(`SELECT price FROM items`); err == nil {
		t.Fatal("want column privilege violation")
	}
	if _, err := carol.Exec(`SELECT * FROM items`); err == nil {
		t.Fatal("want star rejected under column grants")
	}
}

func TestWildcardGrant(t *testing.T) {
	e, _ := newTestEngine(t)
	e.Grants().Grant("dan", ActionSelect, "*")
	dan := e.NewSession("dan")
	dan.MustExec(`SELECT * FROM items`)
	dan.MustExec(`SELECT * FROM sales`)
}

func TestCreateIndexAndLookup(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE INDEX idx_cat ON items (category)`)
	r := mustQuery(t, s, `SELECT COUNT(*) FROM items WHERE category = 'clothes'`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("index path wrong: %v", r.Rows[0][0])
	}
	// Index stays consistent across writes.
	s.MustExec(`INSERT INTO items (id, name, category) VALUES (70, 'scarf', 'clothes')`)
	s.MustExec(`UPDATE items SET category = 'kitchen' WHERE id = 70`)
	r = mustQuery(t, s, `SELECT COUNT(*) FROM items WHERE category = 'clothes'`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("index stale after update: %v", r.Rows[0][0])
	}
	s.MustExec(`DELETE FROM items WHERE id = 70`)
	r = mustQuery(t, s, `SELECT COUNT(*) FROM items WHERE category = 'kitchen'`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("index stale after delete: %v", r.Rows[0][0])
	}
}

func TestUniqueIndexCreation(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`CREATE UNIQUE INDEX idx_cat ON items (category)`); err == nil {
		t.Fatal("want duplicate-value rejection for unique index")
	}
	s.MustExec(`CREATE UNIQUE INDEX idx_name ON items (name)`)
	if _, err := s.Exec(`INSERT INTO items (id, name) VALUES (80, 'mug')`); err == nil {
		t.Fatal("want unique index violation")
	}
}

func TestAlterTable(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`ALTER TABLE items ADD COLUMN stock INT DEFAULT 0`)
	r := mustQuery(t, s, `SELECT stock FROM items WHERE id = 1`)
	if r.Rows[0][0].I != 0 {
		t.Fatalf("added column default wrong: %v", r.Rows)
	}
	s.MustExec(`ALTER TABLE items RENAME TO products`)
	mustQuery(t, s, `SELECT * FROM products`)
	if _, err := s.Exec(`SELECT * FROM items`); err == nil {
		t.Fatal("old name still resolves after rename")
	}
}

func TestExpressionFunctions(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT UPPER(name), LENGTH(name), ROUND(price, 1) FROM items WHERE id = 1`)
	if r.Rows[0][0].S != "SHIRT" || r.Rows[0][1].I != 5 || r.Rows[0][2].F != 20.0 {
		t.Fatalf("functions wrong: %v", r.Rows)
	}
	r = mustQuery(t, s, `SELECT COALESCE(NULL, 'x'), ABS(-4), CAST('12' AS INTEGER)`)
	if r.Rows[0][0].S != "x" || r.Rows[0][1].I != 4 || r.Rows[0][2].I != 12 {
		t.Fatalf("scalar functions wrong: %v", r.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT name, CASE WHEN price > 20 THEN 'high' ELSE 'low' END AS band FROM items ORDER BY id`)
	if r.Rows[0][1].S != "low" || r.Rows[1][1].S != "high" {
		t.Fatalf("case wrong: %v", r.Rows)
	}
}

func TestNullSemantics(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE TABLE n (a INT PRIMARY KEY, b INT)`)
	s.MustExec(`INSERT INTO n VALUES (1, NULL), (2, 5)`)
	// NULL comparisons exclude rows.
	r := mustQuery(t, s, `SELECT COUNT(*) FROM n WHERE b = 5`)
	if r.Rows[0][0].I != 1 {
		t.Fatalf("null filter wrong: %v", r.Rows)
	}
	r = mustQuery(t, s, `SELECT COUNT(*) FROM n WHERE b != 5`)
	if r.Rows[0][0].I != 0 {
		t.Fatalf("null != filter wrong: %v", r.Rows)
	}
	r = mustQuery(t, s, `SELECT COUNT(*) FROM n WHERE b IS NULL`)
	if r.Rows[0][0].I != 1 {
		t.Fatalf("IS NULL wrong: %v", r.Rows)
	}
	// Aggregates ignore NULLs; COUNT(*) does not.
	r = mustQuery(t, s, `SELECT COUNT(b), COUNT(*), SUM(b) FROM n`)
	if r.Rows[0][0].I != 1 || r.Rows[0][1].I != 2 || r.Rows[0][2].I != 5 {
		t.Fatalf("null aggregates wrong: %v", r.Rows)
	}
}

func TestEmptyAggregates(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE TABLE empty_t (a INT PRIMARY KEY)`)
	r := mustQuery(t, s, `SELECT COUNT(*), SUM(a) FROM empty_t`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 0 || !r.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregate wrong: %v", r.Rows)
	}
	r = mustQuery(t, s, `SELECT a, COUNT(*) FROM empty_t GROUP BY a`)
	if len(r.Rows) != 0 {
		t.Fatalf("grouped empty table must return no rows: %v", r.Rows)
	}
}

func TestDropTableBlockedByFK(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`DROP TABLE items`); err == nil {
		t.Fatal("want drop blocked by referencing table")
	}
	s.MustExec(`DROP TABLE sales`)
	s.MustExec(`DROP TABLE items`)
}

func TestSyntaxErrors(t *testing.T) {
	_, s := newTestEngine(t)
	bad := []string{
		`SELEC * FROM items`,
		`SELECT FROM items`,
		`INSERT INTO items VALUES`,
		`UPDATE items SET`,
		`SELECT * FROM items WHERE`,
		`CREATE TABLE x (a BADTYPE)`,
		`SELECT * FROM items WHERE name = 'unterminated`,
	}
	for _, q := range bad {
		if _, err := s.Exec(q); err == nil {
			t.Fatalf("want syntax error for %q", q)
		}
	}
}

func TestUnknownObjects(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`SELECT * FROM nope`); err == nil {
		t.Fatal("want unknown table error")
	}
	if _, err := s.Exec(`SELECT nope FROM items`); err == nil {
		t.Fatal("want unknown column error")
	}
	var nf *NotFoundError
	_, err := s.Exec(`SELECT * FROM nope`)
	if !errors.As(err, &nf) {
		t.Fatalf("want NotFoundError, got %T", err)
	}
}

func TestStatementVerb(t *testing.T) {
	cases := map[string]string{
		"SELECT 1":               "SELECT",
		"  insert into t values": "INSERT",
		"-- c\nDELETE FROM t":    "DELETE",
		"BEGIN":                  "BEGIN",
		"update t set a = 1":     "UPDATE",
		"DROP TABLE t":           "DROP",
		"":                       "",
	}
	for sql, want := range cases {
		if got := StatementVerb(sql); got != want {
			t.Errorf("StatementVerb(%q) = %q, want %q", sql, got, want)
		}
	}
}

func TestSchemaSQL(t *testing.T) {
	e, _ := newTestEngine(t)
	tab, _ := e.Table("sales")
	sql := SchemaSQL(tab)
	for _, want := range []string{"CREATE TABLE sales", "order_id INTEGER PRIMARY KEY", "FOREIGN KEY (item_id) REFERENCES items(id)"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("schema missing %q:\n%s", want, sql)
		}
	}
	// Round-trip: the emitted schema parses.
	if _, err := Parse(sql); err != nil {
		t.Fatalf("emitted schema does not parse: %v\n%s", err, sql)
	}
}

func TestColumnValues(t *testing.T) {
	e, _ := newTestEngine(t)
	vals, err := e.ColumnValues("items", "category", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("want 2 distinct values, got %v", vals)
	}
	if _, err := e.ColumnValues("items", "nope", 0); err == nil {
		t.Fatal("want unknown column error")
	}
}

func TestExecScript(t *testing.T) {
	e := NewEngine("scriptdb")
	s := e.NewSession("root")
	res, err := s.ExecScript(`
		CREATE TABLE a (x INT PRIMARY KEY);
		INSERT INTO a VALUES (1), (2);
		SELECT COUNT(*) FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[2].Rows[0][0].I != 2 {
		t.Fatalf("script results wrong: %v", res)
	}
}

func TestCrossJoinCount(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT COUNT(*) FROM items, sales`)
	if r.Rows[0][0].I != 25 {
		t.Fatalf("cross join count = %v, want 25", r.Rows[0][0])
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	_, s := newTestEngine(t)
	r := mustQuery(t, s, `SELECT a.name, b.name FROM items a, items b WHERE a.price < b.price AND a.id = 1 AND b.id = 2`)
	if len(r.Rows) != 1 {
		t.Fatalf("self join wrong: %v", r.Rows)
	}
}

func TestFromlessSelect(t *testing.T) {
	e := NewEngine("x")
	s := e.NewSession("root")
	r := mustQuery(t, s, `SELECT 1 + 2 AS three, 'a' || 'b'`)
	if r.Rows[0][0].I != 3 || r.Rows[0][1].S != "ab" {
		t.Fatalf("fromless select wrong: %v", r.Rows)
	}
}
