// Package bridgescope is a from-scratch Go reproduction of "BridgeScope: A
// Universal Toolkit for Bridging Large Language Models and Databases"
// (CIDR 2026).
//
// The toolkit itself lives in internal/core; every substrate it runs on —
// the embedded SQL engine (internal/sqldb), the MCP-style tool protocol
// (internal/mcp), the simulated GPT-4o/Claude-4 agents (internal/llm,
// internal/agent), the baselines (internal/pgmcp), the ML tools
// (internal/mltools), and the two benchmarks (internal/bench/...) — is
// implemented here with the standard library only.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. cmd/benchrunner regenerates
// every table and figure of the paper's evaluation; internal/experiments
// pins their counted cells in testdata/paper_golden.json.
package bridgescope
