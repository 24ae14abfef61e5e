// Package pgmcp implements the baseline toolkit the paper compares against
// (§3.1): PG-MCP, adapted from the official MCP server for PostgreSQL. It
// exposes exactly two tools — get_schema and execute_sql — with no privilege
// annotations, no statement-type restrictions, no user-side policy, no
// transaction tools, and no proxy.
//
// Two variants are used in the evaluation:
//
//   - PG-MCP⁻ (WithSchemaTool=false): only execute_sql, isolating the
//     effect of explicit context-retrieval tools (Fig 5a);
//   - PG-MCP-S: identical tools over a reduced 20-row table (Table 2); the
//     reduction is done in the benchmark fixture, not here.
package pgmcp

import (
	"context"
	"fmt"
	"strings"

	"bridgescope/internal/core"
	"bridgescope/internal/mcp"
)

// Options configures the baseline.
type Options struct {
	// WithSchemaTool controls whether get_schema is exposed. PG-MCP⁻ sets
	// this false.
	WithSchemaTool bool
}

// Toolkit is a configured PG-MCP baseline bound to one connection.
type Toolkit struct {
	conn core.Conn
	reg  *mcp.Registry
}

// The baseline's two tools as a client is shown them.
var (
	getSchemaTool  = mcp.NewTool("get_schema", "Return the schema (DDL) of every table in the database.", nil)
	executeSQLTool = mcp.NewTool("execute_sql", "Execute an arbitrary SQL statement and return its result.",
		map[string]any{
			"type": "object",
			"properties": map[string]any{
				"sql": map[string]any{"type": "string"},
			},
			"required": []any{"sql"},
		})
)

// New builds the baseline toolkit.
func New(conn core.Conn, opts Options) *Toolkit {
	t := &Toolkit{conn: conn, reg: mcp.NewRegistry()}
	if opts.WithSchemaTool {
		t.reg.Register(getSchemaTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
			return t.schemaDump(), nil
		}))
	}
	t.reg.Register(executeSQLTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		sql, _ := args["sql"].(string)
		if strings.TrimSpace(sql) == "" {
			return nil, fmt.Errorf("execute_sql: missing required argument \"sql\"")
		}
		// Catalog introspection queries (information_schema) are served
		// from the catalog, as PostgreSQL itself would.
		if strings.Contains(strings.ToLower(sql), "information_schema") {
			return t.schemaDump(), nil
		}
		res, err := t.conn.Exec(sql)
		if err != nil {
			return nil, err
		}
		return res, nil
	}))
	return t
}

// Registry returns the baseline's tool registry.
func (t *Toolkit) Registry() *mcp.Registry { return t.reg }

// Conn returns the underlying connection.
func (t *Toolkit) Conn() core.Conn { return t.conn }

// SystemPrompt is the generic ReAct agent prompt used with the baseline —
// standard tool-use guidance, but none of BridgeScope's database protocol
// (no privilege awareness, no transaction discipline, no proxy routing).
func (t *Toolkit) SystemPrompt() string {
	return `You are a capable general-purpose assistant that completes user tasks by
calling tools in a reason-act-observe loop.

Work step by step: think about what the task requires, choose the single
most useful tool call, observe its result, and continue until the task is
done; then reply with a final answer summarizing the outcome for the user.
Never fabricate tool results — only rely on what the tools actually
returned. When a tool call fails, read the error message carefully, decide
whether the failure is recoverable, and adjust your next step accordingly;
do not repeat an identical failing call more than once. Prefer gathering
any information you need before acting, keep your tool arguments precise
and well-formed JSON, and avoid unnecessary calls — every call costs time
and money. If after several attempts the task cannot be completed, explain
to the user exactly what went wrong, what you tried, and stop gracefully
rather than guessing.

For database work, you can inspect the database schema and execute SQL
statements with the provided tools. Write standard, portable SQL:
reference only tables and columns that actually exist in the schema, quote
text literals with single quotes, use explicit column lists rather than
SELECT * when practical, and add LIMIT clauses to exploratory queries.
When the user asks a question about the data, run the appropriate query
and present the result clearly. When the user asks you to change data,
perform the modification and confirm exactly which rows were affected.
Check constraints and foreign keys may reject invalid changes; report such
rejections honestly. Intermediate results from one tool can be included in
the arguments of your next tool call when a later step needs them, for
example passing queried rows to an analysis tool. Be careful to copy such
data exactly as returned, without truncation or alteration.`
}

func (t *Toolkit) schemaDump() string {
	var sb strings.Builder
	for i, o := range t.conn.ListObjects() {
		if i > 0 {
			sb.WriteString("\n\n")
		}
		ddl, err := t.conn.ObjectDDL(o.Name)
		if err != nil {
			continue
		}
		sb.WriteString(ddl)
	}
	if sb.Len() == 0 {
		return "The database has no tables."
	}
	return sb.String()
}
