package agent

import (
	"context"
	"testing"

	"bridgescope/internal/core"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/tokens"
)

// BenchmarkAgentStaticPrefix is what Run pays per task before the first
// decision: list the tools, render them, count the three parts of the static
// prompt prefix — over the widest list a benchmark task sees, the admin
// toolkit's 14 tools plus the six ML tools.
func BenchmarkAgentStaticPrefix(b *testing.B) {
	e := sqldb.NewEngine("bench")
	e.NewSession("root").MustExec(`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, price REAL)`)
	e.Grants().GrantAll("admin", "*")
	tk := core.New(core.NewSQLDBConn(e, "admin"), core.Policy{})
	mltools.NewServer(7).RegisterTools(tk.Registry())
	client, prompt, nl := tk.Client(), tk.SystemPrompt(), testTask().NL
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		tools, err := client.ListTools(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if n := tokens.Count(prompt) + tokens.Count(renderTools(tools)) + tokens.Count(nl); n < 2000 {
			b.Fatalf("static prefix counts %d tokens", n)
		}
	}
}
