package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver uses to judge the benchmark's steadiness.
// It needs two values at least, as Python does.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// plainMedian is the usual median (mean of the middle two for an even count),
// as the driver takes it over runs.
func plainMedian(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	m := len(x)
	if m%2 == 1 {
		return x[m/2]
	}
	return (x[m/2-1] + x[m/2]) / 2
}

// spreadRow is one workload x metric line of the self-check.
type spreadRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Bound    float64    `json:"bound"`
	Medians  [2]float64 `json:"set_medians"`
	Spreads  [2]float64 `json:"set_spreads"`   // (q3 - q1) / median
	Worst    [2]float64 `json:"set_worst_run"` // largest |run - median| / median
	Shift    float64    `json:"shift"`         // how much worse set B's median is than set A's, as a share
	Exact    *bool      `json:"same_seed_identical,omitempty"`
	OK       bool       `json:"ok"`
}

// selfcheck does what the driver does before it accepts the benchmark: two
// sets of runs of the same code, each run with another seed, the sets
// interleaved. Every end-to-end metric's spread within a set and every run's
// distance from its set's median (setup_s excepted from both), and the shift
// between the set medians, in either direction because the sets' order is
// arbitrary, must stay within the metric's bound. Run i of both sets has the same seed:
// on those pairs the counted metrics must be identical. The observed figures
// go to selfcheck.json.
func selfcheck(o options) int {
	runs := o.selfcheck
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "selfcheck: quartiles need at least 2 runs per set")
		return 2
	}
	type series struct {
		workload, metric string
		set              int
	}
	values := map[series][]float64{} // one value per run
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloadNames {
				line, err := runChild(o, w, o.seed+int64(i), 0, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %v\n%s\n", w, o.seed+int64(i), err, line)
					return 1
				}
				var res struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: bad result line: %v\n%s\n", w, o.seed+int64(i), err, line)
					return 1
				}
				for _, d := range endToEnd {
					m, ok := res.Metrics[d.Name]
					if !ok {
						fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: the result line lacks %s\n%s\n", w, o.seed+int64(i), d.Name, line)
						return 1
					}
					k := series{w, d.Name, set}
					values[k] = append(values[k], m.Value)
				}
				fmt.Printf("run %d/%d set %c %-14s task_p50_ms %.4f\n", i+1, runs, 'A'+set, w, res.Metrics["task_p50_ms"].Value)
			}
		}
	}

	var rows []spreadRow
	ok := true
	fmt.Printf("\n%-14s %-20s %6s %12s %12s %8s %8s %8s %8s\n", "workload", "metric", "bound", "median A", "median B", "spread A", "spread B", "worst", "shift")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			row := spreadRow{Workload: w, Metric: d.Name, Bound: d.Bound, OK: true}
			for s := 0; s < 2; s++ {
				runs := values[series{w, d.Name, s}]
				row.Medians[s] = plainMedian(runs)
				q1, q3 := quartiles(runs)
				row.Spreads[s] = ratio(q3-q1, row.Medians[s])
				for _, v := range runs {
					row.Worst[s] = math.Max(row.Worst[s], math.Abs(ratio(v-row.Medians[s], row.Medians[s])))
				}
				// setup_s is judged on its medians alone, as the driver does:
				// the first process after an idle spell starts cold.
				if d.Name != "setup_s" && (row.Spreads[s] > d.Bound || row.Worst[s] > d.Bound) {
					row.OK = false
				}
			}
			row.Shift = ratio(row.Medians[1]-row.Medians[0], row.Medians[0])
			if d.Better == "higher" {
				row.Shift = -row.Shift
			}
			if math.Abs(row.Shift) > d.Bound {
				row.OK = false
			}
			if exactMetrics[d.Name] {
				same := true
				a, b := values[series{w, d.Name, 0}], values[series{w, d.Name, 1}]
				for i := range a {
					same = same && a[i] == b[i]
				}
				row.Exact = &same
				row.OK = row.OK && same
			}
			note := ""
			switch {
			case row.Exact != nil && !*row.Exact:
				note, ok = "  DIFFERS BETWEEN TWO RUNS OF ONE SEED", false
			case !row.OK:
				note, ok = "  OUTSIDE THE BOUND", false
			case d.Name != "setup_s" && math.Max(row.Spreads[0], row.Spreads[1]) > d.Bound/3:
				note = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-14s %-20s %5.1f%% %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %+7.2f%%%s\n", w, d.Name, 100*d.Bound,
				row.Medians[0], row.Medians[1], 100*row.Spreads[0], 100*row.Spreads[1], 100*math.Max(row.Worst[0], row.Worst[1]), 100*row.Shift, note)
			rows = append(rows, row)
		}
	}
	raw, err := json.MarshalIndent(map[string]any{
		"runs_per_set": runs, "first_seed": o.seed, "seconds": o.seconds, "rows": rows,
	}, "", "  ")
	if err == nil {
		err = os.WriteFile("selfcheck.json", append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck: writing selfcheck.json:", err)
		return 2
	}
	if !ok {
		fmt.Println("\nselfcheck FAILED: lengthen the passes or steady the workload; do not widen a bound silently")
		return 1
	}
	fmt.Println("\nselfcheck passed")
	return 0
}
