package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"bridgescope/internal/mcp"
	"bridgescope/internal/sqldb"
)

// sqlToolSpec maps each SQL-action tool to the privilege it requires and the
// statement verb it accepts (paper §2.3, action-level tool modularization).
type sqlToolSpec struct {
	name   string
	action string   // privilege action keyword
	verb   string   // statement verb the tool accepts
	def    mcp.Tool // what a client is shown; New binds the handler to a copy
}

func sqlSpec(name, verb, description string) sqlToolSpec {
	return sqlToolSpec{name: name, action: verb, verb: verb, def: mcp.NewTool(name, description, map[string]any{
		"type": "object",
		"properties": map[string]any{
			"sql": map[string]any{"type": "string", "description": "the SQL statement"},
		},
		"required": []any{"sql"},
	})}
}

var sqlToolSpecs = []sqlToolSpec{
	sqlSpec("select", "SELECT",
		"Execute a single SELECT statement. Only SELECT is accepted; use the matching tool for other operations."),
	sqlSpec("insert", "INSERT", "Execute a single INSERT statement. Only INSERT is accepted."),
	sqlSpec("update", "UPDATE", "Execute a single UPDATE statement. Only UPDATE is accepted."),
	sqlSpec("delete", "DELETE", "Execute a single DELETE statement. Only DELETE is accepted."),
	sqlSpec("create_table", "CREATE", "Execute a single CREATE TABLE or CREATE INDEX statement."),
	sqlSpec("drop_table", "DROP", "Execute a single DROP TABLE statement."),
	sqlSpec("alter_table", "ALTER", "Execute a single ALTER TABLE statement."),
}

// The transaction tools (paper §2.4).
var (
	beginTool = mcp.NewTool("begin",
		"Begin a new transaction (snapshot isolation). Wrap multi-statement database modifications in begin/commit for atomicity. "+
			"On a serialization-conflict error, rollback and retry the transaction. Optional 'isolation' selects the level.",
		map[string]any{
			"type": "object",
			"properties": map[string]any{
				"isolation": map[string]any{
					"type":        "string",
					"description": "READ COMMITTED, REPEATABLE READ, SNAPSHOT (default), or SERIALIZABLE",
				},
			},
		})
	commitTool   = mcp.NewTool("commit", "Commit the current transaction, making its changes permanent.", nil)
	rollbackTool = mcp.NewTool("rollback", "Roll back the current transaction, discarding its changes.", nil)
)

// Toolkit is a configured BridgeScope instance bound to one database
// connection (hence one user) and one security policy.
type Toolkit struct {
	conn   Conn
	policy Policy
	reg    *mcp.Registry
	client *mcp.Client // serves reg; what Client hands to agents
}

// New builds a BridgeScope toolkit over conn with the given policy. The
// returned toolkit's Registry contains exactly the tools this user may see
// (paper §2.3: selective exposure). Tool definitions are package-level
// values; New decides which to expose and binds this toolkit's handlers.
func New(conn Conn, policy Policy) *Toolkit {
	t := &Toolkit{conn: conn, policy: policy, reg: mcp.NewRegistry()}
	t.client = mcp.NewClient(mcp.NewServer(t.reg))
	t.registerContextTools()
	// Transaction tools appear only when the user can modify data at all.
	if t.registerSQLTools() {
		t.registerTxnTools()
	}
	t.registerProxyTool()
	return t
}

// Registry returns the toolkit's tool registry. Additional domain tools
// (e.g. ML tools) may be registered into it; the proxy tool can then route
// data to them.
func (t *Toolkit) Registry() *mcp.Registry { return t.reg }

// Client returns an MCP client bound to the toolkit's registry.
func (t *Toolkit) Client() *mcp.Client { return t.client }

// Conn returns the underlying database connection.
func (t *Toolkit) Conn() Conn { return t.conn }

// ExposedSQLTools lists the SQL-action tools this user received, sorted.
func (t *Toolkit) ExposedSQLTools() []string {
	var out []string
	for _, spec := range sqlToolSpecs {
		if _, ok := t.reg.Get(spec.name); ok {
			out = append(out, spec.name)
		}
	}
	sort.Strings(out)
	return out
}

// holds reports whether the user holds action on at least one of objs, the
// permitted objects (on the database, for CREATE). The object that answers
// moves to the front: a user with grants on one table out of many tends to
// hold the next action there too, and is then asked once, not once per table.
func (t *Toolkit) holds(action string, objs []ObjectInfo) bool {
	if action == "CREATE" {
		return t.conn.HasPrivilege("CREATE", "*")
	}
	for i, obj := range objs {
		if t.conn.HasPrivilege(action, obj.Name) {
			objs[0], objs[i] = obj, objs[0]
			return true
		}
	}
	return false
}

// registerSQLTools exposes each SQL-action tool that passes the policy lists
// and whose action the user holds, reading the catalog once for all seven.
// It reports whether a tool that modifies data is among them.
func (t *Toolkit) registerSQLTools() (canWrite bool) {
	objs := t.permittedObjects() // a copy: holds reorders it
	for _, spec := range sqlToolSpecs {
		if !t.policy.ToolPermitted(spec.name) || !t.holds(spec.action, objs) {
			continue
		}
		canWrite = canWrite || spec.name != "select"
		t.reg.Register(spec.def.Bind(func(ctx context.Context, args map[string]any) (any, error) {
			sql, _ := args["sql"].(string)
			if strings.TrimSpace(sql) == "" {
				return nil, fmt.Errorf("%s: missing required argument \"sql\"", spec.name)
			}
			return t.execSQL(spec, sql)
		}))
	}
	return canWrite
}

// execSQL enforces statement-type matching and object-level verification
// before touching the database (paper §2.3(2)): hallucinated or injected
// statements are intercepted here, reducing load on the engine and adding a
// policy layer the database cannot provide.
func (t *Toolkit) execSQL(spec sqlToolSpec, sql string) (any, error) {
	verb, tables, err := t.conn.ClassifySQL(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: cannot parse statement: %v", spec.name, err)
	}
	if verb != spec.verb {
		return nil, fmt.Errorf("%s tool only accepts %s statements; got %s (use the matching tool)",
			spec.name, spec.verb, verb)
	}
	if !t.policy.DisableVerification {
		for i, tbl := range tables {
			if !t.policy.ObjectPermitted(tbl) {
				return nil, fmt.Errorf("access to object %q is blocked by the user security policy", tbl)
			}
			// The statement's main table needs the tool's action; other
			// referenced tables need SELECT.
			need := spec.action
			if i > 0 && spec.verb != "SELECT" {
				need = "SELECT"
			}
			if !t.conn.HasPrivilege(need, tbl) {
				return nil, fmt.Errorf("permission denied: user %q lacks %s on %q (verified before execution)",
					t.conn.User(), need, tbl)
			}
		}
	}
	res, err := t.conn.Exec(sql)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render implements mcp.Renderer: the text table reaches the LLM, and a
// result with columns carries its tabular form as Data.
func (r *Result) Render() mcp.CallResult {
	cr := mcp.CallResult{Text: r.Text()}
	if len(r.Columns) > 0 {
		if raw, err := json.Marshal(r.tabular()); err == nil {
			cr.Data = raw
		}
	}
	return cr
}

// tabular is what Render encodes as Data and the proxy hands to transforms.
func (r *Result) tabular() map[string]any {
	return map[string]any{"columns": r.Columns, "rows": r.Rows}
}

func (t *Toolkit) registerTxnTools() {
	t.reg.Register(beginTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		if level, _ := args["isolation"].(string); level != "" {
			// Validate against the known level spellings BEFORE any SQL
			// is assembled: the argument is caller-controlled and must
			// never be concatenated into a statement unchecked.
			if _, ok := sqldb.ParseIsolationLevel(level); !ok {
				return nil, fmt.Errorf("unknown isolation level %q", level)
			}
			if bi, ok := t.conn.(interface{ BeginIsolation(string) error }); ok {
				if err := bi.BeginIsolation(level); err != nil {
					return nil, err
				}
				return "BEGIN", nil
			}
			if _, err := t.conn.Exec("BEGIN ISOLATION LEVEL " + level); err != nil {
				return nil, err
			}
			return "BEGIN", nil
		}
		if err := t.conn.Begin(); err != nil {
			return nil, err
		}
		return "BEGIN", nil
	}))
	t.reg.Register(commitTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		if err := t.conn.Commit(); err != nil {
			return nil, err
		}
		return "COMMIT", nil
	}))
	t.reg.Register(rollbackTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		if err := t.conn.Rollback(); err != nil {
			return nil, err
		}
		return "ROLLBACK", nil
	}))
}
