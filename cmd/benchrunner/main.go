// Command benchrunner regenerates every table and figure from the paper's
// evaluation (§3) and prints them in the paper's layout.
//
// Usage:
//
//	benchrunner [-exp all|fig5a|fig5b|fig5c|fig6|table1|table2|ideal|ablations] [-seed N] [-sample N]
//
// -sample runs every Nth task for a faster pass; the defaults reproduce the
// full benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bridgescope/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig5a, fig5b, fig5c, fig6, table1, table2, ideal, ablations")
	seed := flag.Int64("seed", 42, "benchmark and behaviour seed")
	sample := flag.Int("sample", 1, "run every Nth task (1 = all)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Sample: *sample}
	ran := false
	run := func(name string, fn func(experiments.Config) error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("fig5a", printFig5a)
	run("fig5b", printFig5b)
	run("fig5c", printFig5c)
	run("fig6", printFig6)
	run("table1", printTable1)
	run("table2", printTable2)
	run("ideal", printIdeal)
	run("ablations", printAblations)
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

func printFig5a(cfg experiments.Config) error {
	header("Figure 5(a) — Context retrieval: average #LLM calls per task")
	res, err := experiments.Fig5a(cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-14s %-12s %6.2f calls (best achievable %.0f, %d tasks)\n",
			r.Model, r.Toolkit, r.AvgLLMCalls, r.BestAchievable, r.Tasks)
	}
	return nil
}

func printFig5b(cfg experiments.Config) error {
	header("Figure 5(b) — SQL execution: task accuracy")
	res, err := experiments.Fig5b(cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-14s %-12s accuracy %.3f (%d tasks)\n", r.Model, r.Toolkit, r.Accuracy, r.Tasks)
	}
	return nil
}

func printFig5c(cfg experiments.Config) error {
	header("Figure 5(c) — Transaction management: trigger ratio on write tasks")
	res, err := experiments.Fig5c(cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-14s %-12s trigger ratio %.3f (best achievable 1.0, %d tasks)\n",
			r.Model, r.Toolkit, r.TriggerRatio, r.Tasks)
	}
	return nil
}

func printFig6(cfg experiments.Config) error {
	header("Figure 6 — Average #LLM calls per (user, task type) cell")
	res, err := experiments.Fig6Table1(cfg)
	if err != nil {
		return err
	}
	fmt.Println("-- (a) feasible tasks --")
	for _, r := range res {
		if r.Cell.Feasible() {
			fmt.Printf("%-14s %-12s %-10s %6.2f calls (best %.0f)\n",
				r.Model, r.Toolkit, r.Cell, r.AvgLLMCalls, r.BestAchievable)
		}
	}
	fmt.Println("-- (b) infeasible tasks --")
	for _, r := range res {
		if !r.Cell.Feasible() {
			fmt.Printf("%-14s %-12s %-10s %6.2f calls (best %.0f)\n",
				r.Model, r.Toolkit, r.Cell, r.AvgLLMCalls, r.BestAchievable)
		}
	}
	return nil
}

func printTable1(cfg experiments.Config) error {
	header("Table 1 — Token usage for BIRD-Ext")
	res, err := experiments.Fig6Table1(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-12s | %-10s %-10s | %-10s %-10s %-10s\n",
		"Agent", "Toolkit", "(A,read)", "(A,write)", "(N,write)", "(I,read)", "(I,write)")
	type key struct {
		model string
		kind  experiments.ToolkitKind
	}
	rows := map[key]map[string]float64{}
	var order []key
	for _, r := range res {
		k := key{r.Model, r.Toolkit}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			order = append(order, k)
		}
		rows[k][r.Cell.String()] = r.AvgTokens
	}
	for _, k := range order {
		m := rows[k]
		fmt.Printf("%-14s %-12s | %-10.0f %-10.0f | %-10.0f %-10.0f %-10.0f\n",
			k.model, k.kind,
			m["(A, read)"], m["(A, write)"], m["(N, write)"], m["(I, read)"], m["(I, write)"])
	}
	return nil
}

func printTable2(cfg experiments.Config) error {
	header("Table 2 — Effectiveness of the proxy mechanism (NL2ML)")
	res, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-12s | %-16s %-18s %-12s\n", "Agent", "Toolkit", "Completion rate", "Tokens (avg)", "#LLM calls")
	for _, r := range res {
		tok, calls := "-", "-"
		if r.CompletionRate > 0 {
			tok = fmt.Sprintf("%.1f", r.AvgTokens)
			calls = fmt.Sprintf("%.2f", r.AvgLLMCalls)
		}
		fmt.Printf("%-14s %-12s | %-16.2f %-18s %-12s\n", r.Model, r.Toolkit, r.CompletionRate, tok, calls)
	}
	return nil
}

func printIdeal(cfg experiments.Config) error {
	header("§3.4(3) — Idealized-agent transfer lower bound vs BridgeScope")
	r, err := experiments.IdealizedTransfer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("house table rendering:        %d tokens\n", r.TableTokens)
	fmt.Printf("idealized agent (2 transfers): >= %d tokens\n", r.IdealizedAgentTokens)
	fmt.Printf("BridgeScope measured average:  %.1f tokens\n", r.BridgeScopeTokens)
	fmt.Printf("ratio:                         %.0fx\n", r.Ratio)
	return nil
}

func printAblations(cfg experiments.Config) error {
	header("Ablations — BridgeScope design choices")
	res, err := experiments.Ablations(cfg)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-34s %10.3f %-8s (baseline %.3f, %s)\n", r.Name, r.Value, r.Unit, r.Baseline, r.Note)
	}
	return nil
}
