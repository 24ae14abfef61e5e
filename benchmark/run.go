package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"bridgescope/internal/agent"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
	"bridgescope/internal/pgmcp"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/stats"
	"bridgescope/internal/task"
)

// workload is one named set of inputs. A workload is a sequence of passes;
// every pass runs the same task list, so counts repeat exactly.
type workload interface {
	// setup generates the data from seed and loads the engines. dir is a
	// fresh scratch directory inside the checkout.
	setup(seed int64, dir string) error
	// numTasks is the length of a pass.
	numTasks() int
	// prepare builds task i's inputs outside the timed window.
	prepare(pass, i int) *prepared
	// endPass runs untimed work between passes and returns the problems its
	// pass-level output checks found.
	endPass(pass int, agg *engineAgg) []string
	// finish runs the checks that need the whole run and returns the layer
	// figures only the workload can measure.
	finish() (problems []string, extra map[string]float64)
	// teardown releases what setup built (idempotent).
	teardown()
	// describe returns the sizes and the flush policy for the run metadata.
	describe() (sizes, flush string)
}

// prepared is everything one task needs; building it is not timed.
type prepared struct {
	conn   core.Conn
	engine *sqldb.Engine
	task   *task.Task
	model  llm.Model
	// tools registers extra domain tools (the ML server) into the toolkit.
	tools func(reg *mcp.Registry)
	// check inspects the task's outputs after the window: success feeds
	// task_success_rate, problems feed the failed count.
	check func(o *outcome) (success bool, problems []string)
}

// outcome is what one task produced.
type outcome struct {
	met   *agent.Metrics
	calls []callRecord
}

// callRecord is one top-level tool result as the model saw it.
type callRecord struct {
	tool      string
	text      string
	isErr     bool
	dataBytes int
}

// recorder is the agent's tool client in every run, traced or not: it keeps
// each result the model saw so outputs can be checked and the bytes that
// entered the model's context counted. corrupt is a test seam.
type recorder struct {
	inner   agent.ToolClient
	calls   []callRecord
	exposed int
	corrupt func(tool string, res *mcp.CallResult)
}

func (r *recorder) ListTools(ctx context.Context) ([]mcp.ToolInfo, error) {
	tools, err := r.inner.ListTools(ctx)
	r.exposed = len(tools)
	return tools, err
}

func (r *recorder) CallTool(ctx context.Context, name string, args map[string]any) (mcp.CallResult, error) {
	res, err := r.inner.CallTool(ctx, name, args)
	if err != nil {
		// The agent turns a protocol error into this observation.
		r.calls = append(r.calls, callRecord{tool: name, text: "ERROR: " + err.Error(), isErr: true})
		return res, err
	}
	if r.corrupt != nil {
		r.corrupt(name, &res)
	}
	r.calls = append(r.calls, callRecord{tool: name, text: res.Text, isErr: res.IsErr, dataBytes: len(res.Data)})
	return res, nil
}

// taskSample is the measurement of one task window.
type taskSample struct {
	wallNs, cpuNs            int64
	allocBytes, allocObjects uint64
	toolCalls, llmCalls      int
	tokens, promptTokens     int
	completionTokens         int
	llmBytes                 int
	exposedTools             int
	errResults               int
	dataBytes                int
	success                  bool
	aborted, exhausted       bool
	turnLimit                bool
	problems                 []string
}

// counters reads the process-wide allocation and CPU counters without
// stopping the world.
type counters struct {
	samples [2]metrics.Sample
}

func newCounters() *counters {
	c := &counters{}
	c.samples[0].Name = "/gc/heap/allocs:bytes"
	c.samples[1].Name = "/gc/heap/allocs:objects"
	return c
}

func (c *counters) read() (bytes, objects uint64, cpuNs int64) {
	metrics.Read(c.samples[:])
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64(), cpuNs
}

// runner executes tasks of one workload.
type runner struct {
	w        workload
	ctr      *counters
	tr       *tracer // nil in untraced passes
	baseline bool    // build the PG-MCP toolkit instead of BridgeScope
	corrupt  func(tool string, res *mcp.CallResult)
}

// runTask runs one task: the window opens before toolkit construction and
// closes when agent.Run returns.
func (r *runner) runTask(p *prepared, taskID int) (taskSample, error) {
	var s taskSample
	rec := &recorder{corrupt: r.corrupt}
	conn := p.conn
	model := p.model
	var root int32 = -1

	b0, o0, c0 := r.ctr.read()
	t0 := time.Now()
	if r.tr != nil {
		root = r.tr.beginTask(taskID)
		conn = r.tr.wrapConn(p.conn)
		model = r.tr.wrapModel(p.model)
	}
	var client agent.ToolClient
	var prompt string
	if r.baseline {
		tk := pgmcp.New(conn, pgmcp.Options{WithSchemaTool: true})
		client = mcp.NewClient(mcp.NewServer(tk.Registry()))
		prompt = tk.SystemPrompt()
	} else {
		var id int32
		if r.tr != nil {
			id = r.tr.push(spanNew, "")
		}
		tk := core.New(conn, core.Policy{})
		if p.tools != nil {
			p.tools(tk.Registry())
		}
		prompt = tk.SystemPrompt()
		client = tk.Client()
		if r.tr != nil {
			r.tr.pop(id)
			r.tr.wrapHandlers(tk.Registry())
		}
	}
	rec.inner = client
	client = rec
	if r.tr != nil {
		client = r.tr.wrapClient(rec)
	}
	a := &agent.Agent{Model: model, Client: client, SystemPrompt: prompt}
	met, err := a.Run(context.Background(), p.task)
	if r.tr != nil {
		r.tr.pop(root)
	}
	wall := time.Since(t0)
	b1, o1, c1 := r.ctr.read()
	if err != nil {
		return s, fmt.Errorf("task %s: %w", p.task.ID, err)
	}

	s.wallNs = wall.Nanoseconds()
	s.cpuNs = c1 - c0
	s.allocBytes, s.allocObjects = b1-b0, o1-o0
	s.toolCalls, s.llmCalls = met.ToolCalls, met.LLMCalls
	s.tokens, s.promptTokens, s.completionTokens = met.TotalTokens(), met.PromptTokens, met.CompletionTokens
	s.aborted, s.exhausted, s.turnLimit = met.Aborted, met.ContextExhausted, met.TurnLimit
	s.exposedTools = rec.exposed
	for _, c := range rec.calls {
		s.llmBytes += len(c.text)
		s.dataBytes += c.dataBytes
		if c.isErr {
			s.errResults++
		}
	}
	if r.tr != nil {
		r.tr.afterTask()
	}
	if !r.baseline {
		// The baseline pass runs another toolkit; its outputs are not this
		// benchmark's to check.
		s.success, s.problems = p.check(&outcome{met: met, calls: rec.calls})
	}
	return s, nil
}

// passStats is the measurement of one pass.
type passStats struct {
	samples []taskSample
}

// runPass runs every task of one pass and the workload's pass-level checks.
func (r *runner) runPass(pass int, agg *engineAgg) (*passStats, error) {
	n := r.w.numTasks()
	ps := &passStats{samples: make([]taskSample, 0, n)}
	for i := 0; i < n; i++ {
		p := r.w.prepare(pass, i)
		var before stats.Snapshot
		if agg != nil {
			before = p.engine.Stats()
		}
		s, err := r.runTask(p, pass*n+i)
		if err != nil {
			return nil, err
		}
		if agg != nil {
			agg.addTask(before, p.engine.Stats())
		}
		ps.samples = append(ps.samples, s)
	}
	if problems := r.w.endPass(pass, agg); len(problems) > 0 {
		// Pass-level problems are charged to the pass's last task.
		last := &ps.samples[len(ps.samples)-1]
		last.problems = append(last.problems, problems...)
	}
	return ps, nil
}

// passFigures are the per-pass values whose pass-median is reported.
type passFigures struct {
	p50ms, p90ms, callsPerS, cpuUsPerCall, allocKBPerCall, allocsPerCall float64
	tokensPerTask, llmCallsPerTask, llmKBPerTask, successRate            float64
}

func (ps *passStats) figures() passFigures {
	var wall []float64
	var calls, cpu, bytes, objs, tokens, llm, llmBytes, ok float64
	for i := range ps.samples {
		s := &ps.samples[i]
		wall = append(wall, float64(s.wallNs)/1e6)
		calls += float64(s.toolCalls)
		cpu += float64(s.cpuNs)
		bytes += float64(s.allocBytes)
		objs += float64(s.allocObjects)
		tokens += float64(s.tokens)
		llm += float64(s.llmCalls)
		llmBytes += float64(s.llmBytes)
		if s.success {
			ok++
		}
	}
	n := float64(len(ps.samples))
	return passFigures{
		p50ms:           percentile(wall, 0.5),
		p90ms:           percentile(wall, 0.9),
		callsPerS:       ratio(calls, sum(wall)/1e3),
		cpuUsPerCall:    ratio(cpu/1e3, calls),
		allocKBPerCall:  ratio(bytes/1024, calls),
		allocsPerCall:   ratio(objs, calls),
		tokensPerTask:   ratio(tokens, n),
		llmCallsPerTask: ratio(llm, n),
		llmKBPerTask:    ratio(llmBytes/1024, n),
		successRate:     ratio(ok, n),
	}
}

// failedTasks counts tasks with at least one failed output check and
// collects the first few messages.
func failedTasks(passes []*passStats) (failed int, messages []string) {
	for _, ps := range passes {
		for i := range ps.samples {
			if len(ps.samples[i].problems) == 0 {
				continue
			}
			failed++
			if len(messages) < 10 {
				messages = append(messages, ps.samples[i].problems[0])
			}
		}
	}
	return failed, messages
}

// endToEndValues turns the measured passes into the reported metrics: each
// is the median over passes of the per-pass figure.
func endToEndValues(setupS float64, passes []*passStats) map[string]float64 {
	figs := make([]passFigures, len(passes))
	for i, ps := range passes {
		figs[i] = ps.figures()
	}
	col := func(f func(passFigures) float64) float64 {
		xs := make([]float64, len(figs))
		for i := range figs {
			xs[i] = f(figs[i])
		}
		return median(xs)
	}
	return map[string]float64{
		"setup_s":            setupS,
		"task_p50_ms":        col(func(f passFigures) float64 { return f.p50ms }),
		"task_p90_ms":        col(func(f passFigures) float64 { return f.p90ms }),
		"calls_per_s":        col(func(f passFigures) float64 { return f.callsPerS }),
		"cpu_us_per_call":    col(func(f passFigures) float64 { return f.cpuUsPerCall }),
		"alloc_kb_per_call":  col(func(f passFigures) float64 { return f.allocKBPerCall }),
		"allocs_per_call":    col(func(f passFigures) float64 { return f.allocsPerCall }),
		"tokens_per_task":    col(func(f passFigures) float64 { return f.tokensPerTask }),
		"llm_calls_per_task": col(func(f passFigures) float64 { return f.llmCallsPerTask }),
		"llm_kb_per_task":    col(func(f passFigures) float64 { return f.llmKBPerTask }),
		"task_success_rate":  col(func(f passFigures) float64 { return f.successRate }),
	}
}

// prewarm touches the whole stack once on a throw-away engine so the
// binary's first-touch page faults are not billed to the first set-up.
func prewarm() error {
	e := sqldb.NewEngine("prewarm")
	root := e.NewSession("root")
	root.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	root.MustExec("INSERT INTO t VALUES (1, 10), (2, 20)")
	e.Grants().GrantAll("u", "*")
	tk := core.New(core.NewSQLDBConn(e, "u"), core.Policy{})
	res, err := tk.Client().CallTool(context.Background(), "select", map[string]any{"sql": "SELECT v FROM t WHERE id = 1"})
	if err != nil {
		return err
	}
	if res.IsErr {
		return fmt.Errorf("prewarm select: %s", res.Text)
	}
	return nil
}
