package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/sqldb"
)

const (
	initialBalance = 1_000_000
	// Task i of a pass is a wrong-verb task when i%wrongVerbOneIn is
	// wrongVerbOffset: exactly one in ten, the same ones every pass.
	wrongVerbOneIn  = 10
	wrongVerbOffset = 7
)

// durableTxn is read-write transactions through begin/select/update/insert/
// delete/commit on a persistent engine (WAL, group commit, real filesystem).
// Every statement carries fresh literals, about 18,000 distinct texts per
// pass against 256 plan-cache slots: this is the larger-than-cache workload
// and the plan-miss path. It is the only workload where the WAL, locks, MVCC
// and undo run, and it uses sqldb's point paths for writes beside reads, so a
// read-path gain that costs writers shows here. One task in ten sends a
// wrong-verb statement that execSQL must reject, then rolls back.
type durableTxn struct {
	accounts, ledger, tasks int // rows, rows, tasks per pass

	dir    string
	engine *sqldb.Engine
	rng    *rand.Rand

	// The Go-side model the engine must agree with.
	balance    []int64 // by account id
	ledgerAcct []int32 // by ledger id; 0 = deleted
	ledgerAmt  []int64
	acctCount  []int32 // live ledger rows per account
	acctSum    []int64 // their amounts
	oldest     int     // lowest live ledger id

	liveBytes     int64 // bytes of the row literals that make up the tables
	passUserBytes int64 // bytes of DML text committed in the current pass
}

func (w *durableTxn) numTasks() int { return w.tasks }

func (w *durableTxn) describe() (string, string) {
	return fmt.Sprintf("accounts %d rows, ledger %d rows (account_id indexed, stationary); %d tasks/pass: 9 in 10 are begin, 3 reads, 2 updates, 2 inserts, 2 deletes, commit (11 calls); 1 in 10 is begin, read, wrong-verb statement (rejected), rollback (4 calls)",
			w.accounts, w.ledger, w.tasks),
		"OpenEngine on the checkout's filesystem, Sync: SyncBatch (group commit, one fsync per commit with one client), CheckpointEvery: -1, Engine.Checkpoint() once between passes"
}

func (w *durableTxn) setup(seed int64, dir string) error {
	w.dir = dir
	e, err := sqldb.OpenEngine(dir, sqldb.Options{Name: "durable_txn", Sync: sqldb.SyncBatch, CheckpointEvery: -1})
	if err != nil {
		return err
	}
	w.engine = e
	w.rng = rand.New(rand.NewSource(seed))
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE accounts (id INT PRIMARY KEY, owner INT, balance INT)`)
	root.MustExec(`CREATE TABLE ledger (id INT PRIMARY KEY, account_id INT, amount INT, note TEXT)`)

	w.balance = make([]int64, w.accounts+1)
	w.acctCount = make([]int32, w.accounts+1)
	w.acctSum = make([]int64, w.accounts+1)
	w.ledgerAcct = make([]int32, 1, w.ledger+1+64*w.tasks)
	w.ledgerAmt = make([]int64, 1, cap(w.ledgerAcct))
	w.liveBytes, w.oldest = 0, 1
	live := func(row string) string {
		w.liveBytes += int64(len(row))
		return row
	}
	bulkInsert(root, "accounts", w.accounts, func(i int) string {
		w.balance[i] = initialBalance
		return live(fmt.Sprintf("(%d, %d, %d)", i, 1+w.rng.Intn(5000), initialBalance))
	})
	bulkInsert(root, "ledger", w.ledger, func(i int) string {
		acct, amt := 1+w.rng.Intn(w.accounts), int64(1+w.rng.Intn(500))
		w.noteLedgerInsert(acct, amt)
		return live(fmt.Sprintf("(%d, %d, %d, 'opening entry %d')", i, acct, amt, i))
	})
	root.MustExec(`CREATE INDEX idx_ledger_account ON ledger (account_id)`)
	e.Grants().GrantAll("teller", "accounts")
	e.Grants().GrantAll("teller", "ledger")
	return e.Checkpoint()
}

func (w *durableTxn) noteLedgerInsert(acct int, amt int64) (id int) {
	w.ledgerAcct = append(w.ledgerAcct, int32(acct))
	w.ledgerAmt = append(w.ledgerAmt, amt)
	w.acctCount[acct]++
	w.acctSum[acct] += amt
	return len(w.ledgerAcct) - 1
}

func (w *durableTxn) noteLedgerDelete() (id int) {
	id = w.oldest
	w.oldest++
	acct := w.ledgerAcct[id]
	w.acctCount[acct]--
	w.acctSum[acct] -= w.ledgerAmt[id]
	w.ledgerAcct[id] = 0
	return id
}

func (w *durableTxn) prepare(pass, i int) *prepared {
	a := 1 + w.rng.Intn(w.accounts)
	b := 1 + w.rng.Intn(w.accounts-1)
	if b >= a {
		b++
	}
	x := int64(1 + w.rng.Intn(900))
	id := fmt.Sprintf("txn-%d-%04d", pass, i)
	readA := fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", a)
	readB := fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", b)
	readL := fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM ledger WHERE account_id = %d", a)
	// What the reads must show: every earlier committed transfer, nothing else.
	expect := []string{"", fmt.Sprintf("%d", w.balance[a]), fmt.Sprintf("%d", w.balance[b]), ledgerAnswer(w.acctCount[a], w.acctSum[a])}

	p := &prepared{conn: core.NewSQLDBConn(w.engine, "teller"), engine: w.engine}
	if i%wrongVerbOneIn == wrongVerbOffset {
		p.task = sessionTask(id, "Close the account, but through the wrong tool.")
		p.model = &scripted{
			turns: [][]llm.ToolCall{{call("begin", ""), call("select", readA),
				call("update", fmt.Sprintf("DELETE FROM accounts WHERE id = %d", a))}},
			onError: []llm.ToolCall{call("rollback", "")},
			final:   "the update tool refused a DELETE statement",
		}
		p.check = func(o *outcome) (bool, []string) {
			if len(o.calls) != 4 || o.calls[0].isErr || o.calls[1].isErr || !o.calls[2].isErr || o.calls[3].isErr ||
				!strings.Contains(o.calls[2].text, "only accepts UPDATE") {
				return false, []string{fmt.Sprintf("%s: the wrong-verb statement was not rejected and rolled back: %+v", id, o.calls)}
			}
			if got := secondLine(o.calls[1].text); got != expect[1] {
				return false, []string{fmt.Sprintf("%s: balance read %q, the model holds %q", id, got, expect[1])}
			}
			return true, nil
		}
		return p
	}

	in1 := w.noteLedgerInsert(a, -x)
	in2 := w.noteLedgerInsert(b, x)
	del1, del2 := w.noteLedgerDelete(), w.noteLedgerDelete()
	w.balance[a] -= x
	w.balance[b] += x
	dml := []string{
		fmt.Sprintf("UPDATE accounts SET balance = balance - %d WHERE id = %d", x, a),
		fmt.Sprintf("UPDATE accounts SET balance = balance + %d WHERE id = %d", x, b),
		fmt.Sprintf("INSERT INTO ledger (id, account_id, amount, note) VALUES (%d, %d, %d, 'transfer out %s')", in1, a, -x, id),
		fmt.Sprintf("INSERT INTO ledger (id, account_id, amount, note) VALUES (%d, %d, %d, 'transfer in %s')", in2, b, x, id),
		fmt.Sprintf("DELETE FROM ledger WHERE id = %d", del1),
		fmt.Sprintf("DELETE FROM ledger WHERE id = %d", del2),
	}
	tools := []string{"update", "update", "insert", "insert", "delete", "delete"}
	writes := make([]llm.ToolCall, len(dml))
	for j, sql := range dml {
		writes[j] = call(tools[j], sql)
		w.passUserBytes += int64(len(sql))
	}
	p.task = sessionTask(id, fmt.Sprintf("Transfer %d from account %d to account %d and keep the ledger.", x, a, b))
	p.model = &scripted{
		turns: [][]llm.ToolCall{
			{call("begin", ""), call("select", readA), call("select", readB), call("select", readL)},
			writes,
			{call("commit", "")},
		},
		onError: []llm.ToolCall{call("rollback", "")},
		final:   "transfer committed",
	}
	p.check = func(o *outcome) (bool, []string) {
		if len(o.calls) != 11 || o.met.FinalAnswer != "transfer committed" {
			return false, []string{fmt.Sprintf("%s: %d of 11 calls, final %q", id, len(o.calls), o.met.FinalAnswer)}
		}
		for j, c := range o.calls {
			if c.isErr {
				return false, []string{fmt.Sprintf("%s call %d (%s) failed: %s", id, j, c.tool, c.text)}
			}
			if j < len(expect) && expect[j] != "" && secondLine(c.text) != expect[j] {
				return false, []string{fmt.Sprintf("%s call %d read %q, the model holds %q", id, j, secondLine(c.text), expect[j])}
			}
		}
		return true, nil
	}
	return p
}

func ledgerAnswer(count int32, sum int64) string {
	if count == 0 {
		return "0 | NULL"
	}
	return fmt.Sprintf("%d | %d", count, sum)
}

// verifyState compares the engine's totals with the model's.
func (w *durableTxn) verifyState(e *sqldb.Engine, when string) []string {
	root := e.NewSession("root")
	var problems []string
	want := map[string]string{
		"SELECT COUNT(*), SUM(balance) FROM accounts": fmt.Sprintf("%d | %d", w.accounts, int64(w.accounts)*initialBalance),
		"SELECT COUNT(*) FROM ledger":                 fmt.Sprintf("%d", w.ledger),
	}
	for sql, expect := range want {
		r, err := root.Exec(sql)
		if err != nil {
			problems = append(problems, fmt.Sprintf("durable_txn %s: %s: %v", when, sql, err))
			continue
		}
		if got := secondLine(r.Text()); got != expect {
			problems = append(problems, fmt.Sprintf("durable_txn %s: %s = %q, expected %q", when, sql, got, expect))
		}
	}
	return problems
}

func (w *durableTxn) endPass(pass int, agg *engineAgg) []string {
	problems := w.verifyState(w.engine, fmt.Sprintf("after pass %d", pass))
	before := w.engine.Stats()
	if err := w.engine.Checkpoint(); err != nil {
		problems = append(problems, fmt.Sprintf("durable_txn: checkpoint after pass %d: %v", pass, err))
	}
	if agg != nil {
		agg.add(before, w.engine.Stats())
		agg.userBytes += w.passUserBytes
	}
	w.passUserBytes = 0
	return problems
}

// finish closes the engine, reopens it from the same directory and checks
// that the recovered state is the state the transactions left.
func (w *durableTxn) finish() ([]string, map[string]float64) {
	problems := w.verifyState(w.engine, "before close")
	if err := w.engine.Close(); err != nil {
		problems = append(problems, fmt.Sprintf("durable_txn: close: %v", err))
	}
	w.engine = nil
	dirBytes := dirSize(w.dir)
	t0 := time.Now()
	e, err := sqldb.OpenEngine(w.dir, sqldb.Options{Name: "durable_txn", Sync: sqldb.SyncBatch, CheckpointEvery: -1})
	reopen := time.Since(t0)
	if err != nil {
		return append(problems, fmt.Sprintf("durable_txn: reopen: %v", err)), nil
	}
	problems = append(problems, w.verifyState(e, "after reopen")...)
	if errs := e.CheckConsistency(); len(errs) > 0 {
		problems = append(problems, fmt.Sprintf("durable_txn: reopened engine inconsistent: %v", errs[0]))
	}
	if err := e.Close(); err != nil {
		problems = append(problems, fmt.Sprintf("durable_txn: close after reopen: %v", err))
	}
	return problems, map[string]float64{
		"wal.reopen_ms":               float64(reopen.Nanoseconds()) / 1e6,
		"wal.dir_bytes_per_user_byte": ratio(float64(dirBytes), float64(w.liveBytes)),
	}
}

func (w *durableTxn) teardown() {
	if w.engine != nil {
		// The run is over or failed; the directory is removed next.
		_ = w.engine.Close()
		w.engine = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func dirSize(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
