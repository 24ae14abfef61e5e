// Command benchmark is the repository's benchmark: four tool-call workloads
// driven through the real stack (agent.Agent.Run over core.New's mcp.Client
// over core.SQLDBConn over sqldb.Engine), twelve end-to-end metrics per
// workload, output checks, and a separate traced run that prints the
// per-layer table. See README.md for every definition.
//
//	go run -C benchmark . --workload select_scan --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bridgescope/internal/mcp"
)

var workloadNames = []string{"birdext_agent", "nl2ml_proxy", "select_scan", "durable_txn"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "birdext_agent":
		return &birdextAgent{}, nil
	case "nl2ml_proxy":
		return &nl2mlProxy{rows: defaultHousingRows}, nil
	case "select_scan":
		return &selectScan{orders: defaultOrders, customers: defaultCustomers}, nil
	case "durable_txn":
		return &durableTxn{accounts: 20_000, ledger: 20_000, tasks: 2_000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// The work of a run is a fixed list of operations, not a duration, so counts
// repeat exactly: each workload runs measuredPasses passes at the nominal
// --seconds, which BENCHMARK.json names as run_seconds. Another --seconds
// scales the pass count in proportion; -passes sets it outright.
const nominalSeconds = 30

var measuredPasses = map[string]int{"birdext_agent": 16, "nl2ml_proxy": 7, "select_scan": 10, "durable_txn": 15}

// tracedPasses is the length of a traced run; it gives layer figures, never
// end-to-end numbers, and does not grow with --seconds.
const tracedPasses = 3

func (o options) passCount() int {
	switch {
	case o.passes > 0:
		return o.passes
	case o.trace == 1:
		return tracedPasses
	}
	return max(3, (measuredPasses[o.workload]*o.seconds+nominalSeconds/2)/nominalSeconds)
}

// options are the benchmark's only switches; there are no environment
// variables.
type options struct {
	workload    string
	seed        int64
	seconds     int
	passes      int
	trace       int
	jsonPath    string
	selfcheck   int
	writeGolden bool
	// Not flags; tests set them. shrink swaps in a small workload, corrupt
	// damages tool results on their way to the model.
	shrink  func(w workload)
	corrupt func(tool string, res *mcp.CallResult)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "nominal length of the measured section; scales the fixed pass count")
	flag.IntVar(&o.passes, "passes", 0, "run exactly this many measured passes")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the layer table and the per-layer metrics")
	flag.StringVar(&o.jsonPath, "json", "", "also write the full report (metadata, every metric) to this file")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run two interleaved sets of this many runs per workload and check the spreads against the bounds")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "birdext_agent: store this seed's verdicts as its golden file")
	flag.Parse()
	os.Exit(run(o))
}

func run(o options) int {
	if o.selfcheck > 0 {
		return selfcheck(o)
	}
	if o.workload == "" {
		return runEach(o)
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rep.print()
	if o.jsonPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing -json:", err)
			return 2
		}
	}
	fmt.Println(rep.resultLine())
	if !rep.Correct {
		return 1
	}
	return 0
}

// runEach re-executes the binary once per workload, so no heap or plan cache
// carries over from one workload to the next. -json writes one file per
// workload, the workload's name before the extension; -write-golden goes to
// birdext_agent, the only workload with a golden file.
func runEach(o options) int {
	code := 0
	for _, name := range workloadNames {
		var extra []string
		if o.jsonPath != "" {
			ext := filepath.Ext(o.jsonPath)
			extra = append(extra, "-json", strings.TrimSuffix(o.jsonPath, ext)+"-"+name+ext)
		}
		if o.writeGolden && name == "birdext_agent" {
			extra = append(extra, "-write-golden")
		}
		if _, err := runChild(o, name, o.seed, o.trace, true, extra...); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a child process and returns its result line.
func runChild(o options, name string, seed int64, trace int, echo bool, extra ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-passes", fmt.Sprint(o.passes), "-trace", fmt.Sprint(trace)}
	cmd := exec.Command(exe, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if echo {
		os.Stdout.Write(raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return lines[len(lines)-1], err
}

// runMeta is the run metadata printed with every report.
type runMeta struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	Seed          int64   `json:"seed"`
	Traced        bool    `json:"traced"`
	Passes        int     `json:"passes"`
	TracedPasses  int     `json:"traced_passes,omitempty"`
	TasksPerPass  int     `json:"tasks_per_pass"`
	PooledTasks   int     `json:"pooled_task_samples"`
	PooledCalls   int     `json:"pooled_tool_calls"`
	Sizes         string  `json:"sizes"`
	FlushPolicy   string  `json:"flush_policy"`
	SetupSeconds  float64 `json:"setup_seconds"`
	MeasuredS     float64 `json:"measured_section_s"`
	Protocol      string  `json:"protocol"`
	OutputChecked string  `json:"output_reference,omitempty"`
}

// report is one workload's result.
type report struct {
	Workload  string             `json:"workload"`
	Meta      runMeta            `json:"meta"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	layers    []layerRow
}

// commit asks git, because `go run` does not stamp VCS data into the binary.
// The driver's checkout is not a git repository; there the commit is the
// driver's to record.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload is the whole protocol for one workload: pre-warm, set-up with
// its warm-up pass, the measured passes, the checks.
func runWorkload(o options) (*report, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := prewarm(); err != nil {
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	scratch := filepath.Join("out", fmt.Sprintf("scratch-%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	defer w.teardown()

	if o.shrink != nil {
		o.shrink(w)
	}
	r := &runner{w: w, ctr: newCounters(), corrupt: o.corrupt}
	t0 := time.Now()
	if err := w.setup(o.seed, scratch); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The warm-up pass fills the plan cache and finishes lazy set-up; it is
	// part of setup_s and its outputs are the later passes' reference.
	warm, err := r.runPass(0, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	checked := []*passStats{warm} // every pass whose outputs were checked

	rep := &report{Workload: o.workload}
	sizes, flush := w.describe()
	rep.Meta = runMeta{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Traced: o.trace == 1, TasksPerPass: w.numTasks(), Sizes: sizes, FlushPolicy: flush, SetupSeconds: setupS,
		Protocol: "one process, one client, closed loop; stats.SetEnabled default (on); GC default",
	}
	if b, ok := w.(*birdextAgent); ok {
		rep.Meta.OutputChecked = "warm-up pass"
		if b.golden {
			rep.Meta.OutputChecked = goldenPath(o.seed)
		}
	}

	// A fixed number of passes is measured. In a traced run every third
	// pass, the first one too, is untraced and comes on top: those give the
	// calls_per_s the traced passes are compared with, and interleaving keeps
	// drift over the run out of the overhead figure. End-to-end numbers never
	// come from a traced run.
	start := time.Now()
	var in layerInputs
	var passes []*passStats
	var untracedRates []float64
	if o.trace == 1 {
		in.tr, in.agg = newTracer(), newEngineAgg()
		in.memBefore = readMem()
	}
	for k := 0; len(passes) < o.passCount(); k++ {
		traced := o.trace == 1 && k%3 != 0
		var agg *engineAgg
		r.tr = nil
		if traced {
			r.tr, agg = in.tr, in.agg
		}
		ps, err := r.runPass(k+1, agg)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k+1, err)
		}
		checked = append(checked, ps)
		for i := range ps.samples {
			in.sectionCalls += float64(ps.samples[i].toolCalls)
		}
		if o.trace == 1 && !traced {
			untracedRates = append(untracedRates, ps.figures().callsPerS)
		} else {
			passes = append(passes, ps)
		}
	}
	r.tr = nil
	if o.trace == 1 {
		in.memAfter = readMem()
		in.passes = passes
		in.untracedRate = median(untracedRates)
		rep.Meta.TracedPasses = len(passes)
		if _, ok := w.(*birdextAgent); ok {
			// One pass on the PG-MCP baseline toolkit keeps the paper's
			// Table 1 ratio visible next to BridgeScope's tokens.
			r.baseline = true
			base, err := r.runPass(len(checked), nil)
			if err != nil {
				return nil, fmt.Errorf("baseline pass: %w", err)
			}
			r.baseline = false
			f := base.figures()
			in.baseline = baselineFigures{tokensPerTask: f.tokensPerTask, llmCallsPerTask: f.llmCallsPerTask}
			checked = append(checked, base) // its pass-level checks ran
		}
	}
	rep.Meta.MeasuredS = time.Since(start).Seconds()
	rep.Meta.Passes = len(passes)
	for _, ps := range passes {
		rep.Meta.PooledTasks += len(ps.samples)
		for i := range ps.samples {
			rep.Meta.PooledCalls += ps.samples[i].toolCalls
		}
	}

	if o.writeGolden {
		b, ok := w.(*birdextAgent)
		if !ok {
			return nil, fmt.Errorf("-write-golden applies to birdext_agent only")
		}
		if err := b.writeGolden(); err != nil {
			return nil, err
		}
	}
	finalProblems, extra := w.finish()

	for _, ps := range checked {
		rep.Attempted += len(ps.samples)
	}
	rep.Failed, rep.Problems = failedTasks(checked)
	if len(finalProblems) > 0 {
		rep.Failed += len(finalProblems)
		rep.Problems = append(rep.Problems, finalProblems...)
	}
	rep.Correct = rep.Failed == 0

	failShare := ratio(float64(rep.Failed), float64(rep.Attempted))
	if o.trace != 1 {
		rep.EndToEnd = endToEndValues(setupS, passes)
		rep.EndToEnd[opFailShare.Name] = failShare
	} else {
		in.extra = extra
		rep.PerLayer, rep.layers = perLayerValues(in)
		rep.PerLayer[opFailShare.Name] = failShare
		if err := os.MkdirAll("out", 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join("out", "trace-"+o.workload+".jsonl"), in.tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

func (r *report) print() {
	m := r.Meta
	fmt.Printf("== %s ==\n", r.Workload)
	fmt.Printf("commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d\n", m.Commit, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Seed)
	fmt.Printf("sizes: %s\n", m.Sizes)
	fmt.Printf("flush policy: %s\n", m.FlushPolicy)
	fmt.Printf("protocol: %s\n", m.Protocol)
	fmt.Printf("set-up (pre-warm excluded, warm-up pass included): %.3f s\n", m.SetupSeconds)
	fmt.Printf("measured: %d passes x %d tasks = %d pooled task samples, %d tool calls, %.1f s\n",
		m.Passes, m.TasksPerPass, m.PooledTasks, m.PooledCalls, m.MeasuredS)
	if m.OutputChecked != "" {
		fmt.Printf("verdict reference: %s\n", m.OutputChecked)
	}
	if r.EndToEnd != nil {
		fmt.Printf("\n%-20s %14s %-7s %-7s %6s   %s\n", "end-to-end metric", "value", "unit", "better", "bound", "statistic")
		for _, d := range endToEnd {
			fmt.Printf("%-20s %14.4f %-7s %-7s %5.1f%%   %s\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound, statistic(d.Name, m))
		}
		// The twelfth metric is 0 on a healthy run, so it cannot carry a
		// relative bound; its bound is absolute and the exit code enforces it.
		fmt.Printf("%-20s %14.4f %-7s %-7s %6s   %s\n", opFailShare.Name, r.EndToEnd[opFailShare.Name], opFailShare.Unit, opFailShare.Better, "0",
			fmt.Sprintf("%d failed of %d checked tasks; any failure exits non-zero", r.Failed, r.Attempted))
	}
	if r.PerLayer != nil {
		fmt.Printf("\nlayer table (%d traced passes; self = span - children; share of the sum of task spans)\n", m.TracedPasses)
		printLayerTable(r.layers)
		fmt.Printf("\n%-42s %16s %s\n", "per-layer metric", "value", "unit")
		for _, d := range perLayer {
			fmt.Printf("%-42s %16.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
	}
	fmt.Printf("\noutput checks: %d tasks checked, %d failed\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Println("  FAILED:", p)
	}
}

// statistic says how a reported number was formed and from how many samples.
func statistic(name string, m runMeta) string {
	switch name {
	case "setup_s":
		return "one set-up per run"
	case "task_p50_ms", "task_p90_ms":
		return fmt.Sprintf("median over %d passes of the per-pass nearest-rank percentile (%d tasks/pass, %d pooled)", m.Passes, m.TasksPerPass, m.PooledTasks)
	case "calls_per_s", "cpu_us_per_call", "alloc_kb_per_call", "allocs_per_call":
		return fmt.Sprintf("median over %d passes of the per-pass ratio (%d calls pooled)", m.Passes, m.PooledCalls)
	}
	return fmt.Sprintf("per-pass mean over %d tasks, median over %d passes; repeats exactly on the same seed", m.TasksPerPass, m.Passes)
}

// resultLine is the last line of standard output: the object the driver reads.
func (r *report) resultLine() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.EndToEnd
	if r.PerLayer != nil {
		defs, values = perLayer, r.PerLayer
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}
