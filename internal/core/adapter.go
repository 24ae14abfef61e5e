// Package core implements BridgeScope, the paper's contribution: a
// fine-grained, security-aware, proxy-enabled database toolkit for LLM
// agents.
//
// The toolkit exposes four tool families over any database that implements
// the Conn interface (paper §2.6, "unified set of database interfaces"):
//
//   - context retrieval: get_schema (adaptive full/hierarchical),
//     get_object, get_value (§2.2);
//   - SQL execution: one tool per action — select, insert, update, delete,
//     create_table, drop_table, alter_table — each enforcing statement-type
//     matching and object-level verification (§2.3);
//   - transaction management: begin, commit, rollback (§2.4);
//   - data transmission: proxy, which routes producer output directly into
//     consumer tools without LLM involvement (§2.5).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
)

// Result is the database-agnostic execution result exchanged with tools.
// Rows hold JSON-ready values (int64/float64/string/bool/nil).
type Result struct {
	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
	Message  string   `json:"message,omitempty"`
}

// Text renders the result in the same tabular form the engine uses, which
// is what enters the LLM context.
func (r *Result) Text() string {
	if len(r.Columns) == 0 {
		if r.Message != "" {
			return r.Message
		}
		return fmt.Sprintf("OK, %d row(s) affected", r.Affected)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Columns, " | "))
	sb.WriteString("\n")
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if v == nil {
				sb.WriteString("NULL")
			} else {
				fmt.Fprintf(&sb, "%v", v)
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "(%d rows)", len(r.Rows))
	return sb.String()
}

// ObjectInfo describes a top-level named object.
type ObjectInfo struct {
	Name string
	Kind string // "table" (views would add "view")
}

// DurabilityStats is the backend-agnostic view of a connection's
// persistence layer (write-ahead logging, group commit, checkpoints).
type DurabilityStats struct {
	Durable      bool   `json:"durable"`
	Mode         string `json:"mode"` // "memory", "off", "batch", "always"
	Commits      int64  `json:"commits"`
	Fsyncs       int64  `json:"fsyncs"`
	GroupFlushes int64  `json:"group_flushes"`
	WALBytes     int64  `json:"wal_bytes"`
	Checkpoints  int64  `json:"checkpoints"`
}

// CacheStats is the backend-agnostic view of a connection's
// prepared-statement (plan) cache: executions served from a cached plan,
// executions that had to parse and plan, LRU evictions, and the number of
// plans currently resident.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
}

// HealthStatus is the backend-agnostic view of a connection's failure
// state. A degraded backend serves reads but refuses writes with a
// retryable error until the underlying fault is fixed and it is reopened.
type HealthStatus struct {
	Degraded          bool   `json:"degraded"`
	DegradedBy        string `json:"degraded_by,omitempty"`         // subsystem that fail-stopped ("wal", "checkpoint")
	DegradedErr       string `json:"degraded_err,omitempty"`        // the triggering I/O error
	Reason            string `json:"reason,omitempty"`              // human-readable account of the degraded state
	LastCheckpointErr string `json:"last_checkpoint_err,omitempty"` // most recent checkpoint failure, if any
}

// Healthy reports whether nothing is wrong.
func (h HealthStatus) Healthy() bool { return !h.Degraded && h.LastCheckpointErr == "" }

// Conn is the unified database interface all BridgeScope tools are built
// on. One Conn represents one authenticated connection: it executes under a
// fixed database user and owns that user's transaction state. Implementing
// Conn for another database system ports the entire toolkit (§2.6).
type Conn interface {
	// User returns the database user this connection authenticates as.
	User() string

	// Exec runs one SQL statement under the connection's user.
	Exec(sql string) (*Result, error)

	// Transaction control.
	Begin() error
	Commit() error
	Rollback() error
	InTransaction() bool

	// Catalog introspection.
	ListObjects() []ObjectInfo
	ObjectDDL(name string) (string, error)
	Columns(name string) ([]string, error)
	ColumnValues(table, column string, limit int) ([]string, error)

	// Privilege introspection for the connection's user.
	HasPrivilege(action, object string) bool
	ObjectActions(object string) []string

	// ClassifySQL parses a statement far enough to report its verb
	// ("SELECT", "INSERT", ...) and the tables it references.
	ClassifySQL(sql string) (verb string, tables []string, err error)

	// Explain returns the backend's chosen execution plan for sql without
	// executing it, one plan operator per line. It enforces the same
	// privileges running the statement would.
	Explain(sql string) (string, error)

	// CacheStats reports the backend's prepared-statement cache counters.
	// Backends without a statement cache report the zero value.
	CacheStats() CacheStats

	// Stats reports the backend's full observability snapshot: per-statement
	// latency histograms, WAL and MVCC counters, the slow-query log, and so
	// on. Backends without a metrics surface report the zero value.
	Stats() stats.Snapshot

	// Durability reports the backend's persistence counters: the sync mode
	// and the WAL/checkpoint activity behind committed writes. Purely
	// in-memory backends report Durable=false.
	Durability() DurabilityStats

	// Health reports whether the backend is fully operational or has
	// fail-stopped into read-only degraded mode after a durability I/O
	// failure (disk full, fsync error). Backends without a degraded state
	// report the zero value (healthy).
	Health() HealthStatus

	// IsPermissionDenied reports whether an error returned by Exec is a
	// database-side privilege rejection.
	IsPermissionDenied(err error) bool

	// IsSerializationFailure reports whether an error returned by Exec is a
	// retryable write-write conflict under the backend's snapshot
	// isolation (PostgreSQL SQLSTATE 40001): the caller should ROLLBACK
	// and retry the whole transaction. See RunInTransaction.
	IsSerializationFailure(err error) bool
}

// RetryBackoff configures the delay schedule between serialization-failure
// retries: exponential growth from Base, bounded by Cap, with equal-jitter
// randomization (a delay d becomes uniform in [d, 1.5d)) so colliding
// transactions spread out instead of re-colliding in lockstep. The zero
// value selects the defaults. Sleep and Jitter are test seams; nil means
// time.Sleep and rand.Int63n.
type RetryBackoff struct {
	Base   time.Duration // delay before the first retry (default 200µs)
	Cap    time.Duration // upper bound on the un-jittered delay (default 50ms)
	Sleep  func(time.Duration)
	Jitter func(n int64) int64
}

// DefaultRetryBackoff is the schedule RunInTransaction uses: 200µs doubling
// up to 50ms.
var DefaultRetryBackoff = RetryBackoff{Base: 200 * time.Microsecond, Cap: 50 * time.Millisecond}

// delay computes the jittered sleep before retry number `retry` (0-based).
func (b RetryBackoff) delay(retry int) time.Duration {
	base, cap := b.Base, b.Cap
	if base <= 0 {
		base = DefaultRetryBackoff.Base
	}
	if cap <= 0 {
		cap = DefaultRetryBackoff.Cap
	}
	d := base
	if retry >= 62 {
		d = cap // base<<retry would overflow long before this
	} else if d <<= uint(retry); d <= 0 || d > cap {
		d = cap
	}
	if half := int64(d / 2); half > 0 {
		jitter := b.Jitter
		if jitter == nil {
			jitter = rand.Int63n
		}
		d += time.Duration(jitter(half))
	}
	return d
}

// RetryNoter is an optional Conn extension: backends that track
// client-side transaction retries implement it, and RunInTransaction's
// backoff loop reports each retry through it so retry pressure shows up in
// the backend's metrics.
type RetryNoter interface {
	NoteRetry()
}

// RunInTransaction executes fn inside a transaction on conn, committing on
// success and rolling back on error. Retryable serialization failures
// (write-write conflicts under snapshot isolation) restart fn up to
// maxRetries times with a fresh snapshot — the documented conflict-retry
// contract, packaged so agent toolkits and application code need no
// backend-specific error matching. maxRetries <= 0 means a sensible
// default. Retries back off exponentially with jitter (DefaultRetryBackoff)
// so a storm of conflicting transactions converges instead of thrashing.
func RunInTransaction(conn Conn, maxRetries int, fn func(Conn) error) error {
	return RunInTransactionBackoff(conn, maxRetries, DefaultRetryBackoff, fn)
}

// RunInTransactionBackoff is RunInTransaction with an explicit backoff
// schedule. No sleep happens after the final failed attempt: the error
// returns immediately.
func RunInTransactionBackoff(conn Conn, maxRetries int, backoff RetryBackoff, fn func(Conn) error) error {
	if maxRetries <= 0 {
		maxRetries = 5
	}
	sleep := backoff.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err := conn.Begin(); err != nil {
			return err
		}
		err := fn(conn)
		if err == nil {
			if err = conn.Commit(); err == nil {
				return nil
			}
		}
		_ = conn.Rollback()
		if !conn.IsSerializationFailure(err) {
			return err
		}
		lastErr = err
		if attempt < maxRetries {
			if n, ok := conn.(RetryNoter); ok {
				n.NoteRetry()
			}
			sleep(backoff.delay(attempt))
		}
	}
	return fmt.Errorf("transaction retried %d times without success: %w", maxRetries, lastErr)
}

// SQLDBConn adapts a sqldb session to the Conn interface. It is the
// reference implementation, playing the role of the paper's open-source
// PostgreSQL binding.
type SQLDBConn struct {
	sess *sqldb.Session
}

// NewSQLDBConn opens a connection to engine as user.
func NewSQLDBConn(engine *sqldb.Engine, user string) *SQLDBConn {
	return &SQLDBConn{sess: engine.NewSession(user)}
}

// Session exposes the underlying session (tests and fixtures).
func (c *SQLDBConn) Session() *sqldb.Session { return c.sess }

// User implements Conn.
func (c *SQLDBConn) User() string { return c.sess.User() }

// Exec implements Conn.
func (c *SQLDBConn) Exec(sql string) (*Result, error) {
	r, err := c.sess.Exec(sql)
	if err != nil {
		return nil, err
	}
	return convertResult(r), nil
}

func convertResult(r *sqldb.Result) *Result {
	out := &Result{Columns: r.Columns, Affected: r.Affected, Message: r.Message}
	for _, row := range r.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = valueToAny(v)
		}
		out.Rows = append(out.Rows, vals)
	}
	return out
}

func valueToAny(v sqldb.Value) any {
	switch v.Kind {
	case sqldb.KindInt:
		return v.I
	case sqldb.KindFloat:
		return v.F
	case sqldb.KindText:
		return v.S
	case sqldb.KindBool:
		return v.B
	}
	return nil
}

// Begin implements Conn.
func (c *SQLDBConn) Begin() error { _, err := c.sess.Exec("BEGIN"); return err }

// BeginIsolation starts a transaction at a named isolation level
// ("READ COMMITTED", "REPEATABLE READ", "SNAPSHOT", "SERIALIZABLE").
func (c *SQLDBConn) BeginIsolation(level string) error {
	if _, ok := sqldb.ParseIsolationLevel(level); !ok {
		return fmt.Errorf("unknown isolation level %q", level)
	}
	_, err := c.sess.Exec("BEGIN ISOLATION LEVEL " + level)
	return err
}

// Commit implements Conn.
func (c *SQLDBConn) Commit() error { _, err := c.sess.Exec("COMMIT"); return err }

// Rollback implements Conn.
func (c *SQLDBConn) Rollback() error { _, err := c.sess.Exec("ROLLBACK"); return err }

// InTransaction implements Conn.
func (c *SQLDBConn) InTransaction() bool { return c.sess.InTransaction() }

// ListObjects implements Conn.
func (c *SQLDBConn) ListObjects() []ObjectInfo {
	e := c.sess.Engine()
	names := e.TableNames()
	out := make([]ObjectInfo, 0, len(names))
	for _, n := range names {
		out = append(out, ObjectInfo{Name: n, Kind: "table"})
	}
	for _, n := range e.ViewNames() {
		out = append(out, ObjectInfo{Name: n, Kind: "view"})
	}
	return out
}

// ObjectDDL implements Conn.
func (c *SQLDBConn) ObjectDDL(name string) (string, error) {
	if ddl, ok := c.sess.Engine().ObjectDDL(name); ok {
		return ddl, nil
	}
	return "", &sqldb.NotFoundError{Kind: "table", Name: name}
}

// Columns implements Conn.
func (c *SQLDBConn) Columns(name string) ([]string, error) {
	t, ok := c.sess.Engine().Table(name)
	if !ok {
		return nil, &sqldb.NotFoundError{Kind: "table", Name: name}
	}
	return t.ColumnNames(), nil
}

// ColumnValues implements Conn.
func (c *SQLDBConn) ColumnValues(table, column string, limit int) ([]string, error) {
	vals, err := c.sess.Engine().ColumnValues(table, column, limit)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out, nil
}

// HasPrivilege implements Conn.
func (c *SQLDBConn) HasPrivilege(action, object string) bool {
	a, ok := sqldb.ParseAction(action)
	if !ok {
		return false
	}
	return c.sess.Engine().Grants().Has(c.sess.User(), a, object)
}

// ObjectActions implements Conn.
func (c *SQLDBConn) ObjectActions(object string) []string {
	acts := c.sess.Engine().Grants().ObjectActions(c.sess.User(), object)
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.String()
	}
	return out
}

// ClassifySQL implements Conn.
func (c *SQLDBConn) ClassifySQL(sql string) (string, []string, error) {
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return "", nil, err
	}
	verb := ""
	switch stmt.(type) {
	case *sqldb.SelectStmt:
		verb = "SELECT"
	case *sqldb.InsertStmt:
		verb = "INSERT"
	case *sqldb.UpdateStmt:
		verb = "UPDATE"
	case *sqldb.DeleteStmt:
		verb = "DELETE"
	case *sqldb.CreateTableStmt, *sqldb.CreateIndexStmt:
		verb = "CREATE"
	case *sqldb.DropTableStmt:
		verb = "DROP"
	case *sqldb.AlterTableStmt:
		verb = "ALTER"
	case *sqldb.BeginStmt:
		verb = "BEGIN"
	case *sqldb.CommitStmt:
		verb = "COMMIT"
	case *sqldb.RollbackStmt:
		verb = "ROLLBACK"
	case *sqldb.GrantStmt, *sqldb.RevokeStmt:
		verb = "GRANT"
	case *sqldb.ExplainStmt:
		verb = "EXPLAIN"
	default:
		verb = strings.ToUpper(sqldb.StatementVerb(sql))
	}
	return verb, sqldb.ReferencedTables(stmt), nil
}

// Explain implements Conn using the engine's planner.
func (c *SQLDBConn) Explain(sql string) (string, error) {
	plan, err := c.sess.Plan(sql)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// CacheStats implements Conn. The counters are engine-wide: the plan cache
// is shared by every connection to the engine (entries are keyed per user),
// which is what makes hot agent/proxy traffic skip parse+plan across
// sessions.
func (c *SQLDBConn) CacheStats() CacheStats {
	cs := c.sess.Engine().PlanCacheSnapshot()
	return CacheStats{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Size: cs.Size}
}

// Stats implements Conn with the engine-wide snapshot: metrics aggregate
// across every connection to the engine.
func (c *SQLDBConn) Stats() stats.Snapshot {
	return c.sess.Engine().Stats()
}

// NoteRetry implements RetryNoter: RunInTransaction's backoff loop reports
// each serialization-failure retry into the engine's MVCC counters.
func (c *SQLDBConn) NoteRetry() {
	c.sess.Engine().NoteTxnRetry()
}

// Durability implements Conn. Like CacheStats, the counters are engine-wide:
// the WAL is shared by every connection to the engine.
func (c *SQLDBConn) Durability() DurabilityStats {
	st := c.sess.Engine().Durability()
	return DurabilityStats{
		Durable:      st.Durable,
		Mode:         st.Mode,
		Commits:      st.Commits,
		Fsyncs:       st.Fsyncs,
		GroupFlushes: st.GroupFlushes,
		WALBytes:     st.WALBytes,
		Checkpoints:  st.Checkpoints,
	}
}

// Health implements Conn. The state is engine-wide: one fail-stopped WAL
// degrades every connection to the engine.
func (c *SQLDBConn) Health() HealthStatus {
	h := c.sess.Engine().Health()
	return HealthStatus{
		Degraded:          h.Degraded,
		DegradedBy:        h.DegradedBy,
		DegradedErr:       h.DegradedErr,
		Reason:            h.Reason,
		LastCheckpointErr: h.LastCheckpointErr,
	}
}

// IsPermissionDenied implements Conn.
func (c *SQLDBConn) IsPermissionDenied(err error) bool {
	var pe *sqldb.PermissionError
	return errors.As(err, &pe)
}

// IsSerializationFailure implements Conn.
func (c *SQLDBConn) IsSerializationFailure(err error) bool {
	return sqldb.IsRetryable(err)
}
