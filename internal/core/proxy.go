package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"bridgescope/internal/mcp"
)

// Proxy-spec keys, matching the paper's Figure 3.
const (
	proxyToolKey      = "__tool__"
	proxyArgsKey      = "__args__"
	proxyTransformKey = "__transform__"
)

var proxyTool = mcp.NewTool("proxy",
	"Execute target_tool with tool_args, where any argument value may be a producer "+
		"spec {\"__tool__\": name, \"__args__\": {...}, \"__transform__\": expr} whose output is "+
		"routed directly into the argument without passing through you. Producer specs nest "+
		"arbitrarily; sibling producers run in parallel. Use this whenever one tool's (possibly "+
		"large) output feeds another tool. Transform expressions: identity | rows | field:<name> | "+
		"column:<name> | matrix:<c1,c2,...> | vector:<col> | first | count | flatten, chainable "+
		"with '|'. \"lambda x: x\" is accepted as identity.",
	map[string]any{
		"type": "object",
		"properties": map[string]any{
			"target_tool": map[string]any{"type": "string"},
			"tool_args":   map[string]any{"type": "object"},
		},
		"required": []any{"target_tool", "tool_args"},
	})

func (t *Toolkit) registerProxyTool() {
	t.reg.Register(proxyTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		target, _ := args["target_tool"].(string)
		if target == "" {
			return nil, fmt.Errorf("proxy: missing required argument \"target_tool\"")
		}
		toolArgs, _ := args["tool_args"].(map[string]any)
		return t.runProxyUnit(ctx, target, toolArgs)
	}))
}

// runProxyUnit executes one proxy unit ⟨p, c, f⟩ (paper §2.5): resolve every
// producer (bottom-up, siblings in parallel), apply the adaptation
// functions, then invoke the consumer and return its result to the caller.
// All run in process; nothing is encoded until the result leaves the server.
func (t *Toolkit) runProxyUnit(ctx context.Context, target string, args map[string]any) (any, error) {
	resolved, err := t.resolveArgs(ctx, args)
	if err != nil {
		return nil, err
	}
	out, err := t.callTool(ctx, "consumer", target, resolved)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	return out, nil
}

// callTool runs one tool as role ("producer" or "consumer"). Lookup and
// handler are those a client's call gets: a tool the policy hid stays out of
// reach, and a SQL tool verifies its statement as for a direct call.
func (t *Toolkit) callTool(ctx context.Context, role, name string, args map[string]any) (any, error) {
	tool, ok := t.reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("%s %q: %w", role, name,
			&mcp.RPCError{Code: mcp.CodeMethodNotFound, Message: fmt.Sprintf("unknown tool %q", name)})
	}
	out, err := tool.Handler(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("%s %q failed: %w", role, name, err)
	}
	// A bridge to another server hands back that server's encoded result.
	if cr, ok := out.(mcp.CallResult); ok && cr.IsErr {
		return nil, fmt.Errorf("%s %q failed: %s", role, name, strings.TrimPrefix(cr.Text, "ERROR: "))
	}
	return out, nil
}

// resolveArgs replaces every producer spec in args with its produced,
// transformed value. Sibling producers execute concurrently unless the
// policy disables parallelism; when several fail, the one with the lowest
// argument name is reported, whichever failed first.
func (t *Toolkit) resolveArgs(ctx context.Context, args map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(args))
	type job struct {
		key  string
		spec map[string]any
	}
	var jobs []job
	for k, v := range args {
		if spec, ok := producerSpec(v); ok {
			jobs = append(jobs, job{key: k, spec: spec})
		} else {
			out[k] = v
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].key < jobs[j].key })

	vals, errs := make([]any, len(jobs)), make([]error, len(jobs))
	if t.policy.DisableParallelProxy || len(jobs) <= 1 {
		for i, j := range jobs {
			if vals[i], errs[i] = t.runProducer(ctx, j.spec); errs[i] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[i], errs[i] = t.runProducer(ctx, j.spec)
			}()
		}
		wg.Wait()
	}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("proxy: argument %q: %w", j.key, errs[i])
		}
		out[j.key] = vals[i]
	}
	return out, nil
}

// producerSpec recognizes {"__tool__": ..., ...} maps.
func producerSpec(v any) (map[string]any, bool) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, false
	}
	if _, ok := m[proxyToolKey].(string); !ok {
		return nil, false
	}
	return m, true
}

// runProducer executes one producer: resolve its own arguments recursively
// (this is what makes proxy units hierarchical), call the tool, apply the
// adaptation function f, and put the outcome in the shapes a handler expects.
func (t *Toolkit) runProducer(ctx context.Context, spec map[string]any) (any, error) {
	name, _ := spec[proxyToolKey].(string)
	rawArgs, _ := spec[proxyArgsKey].(map[string]any)
	resolved, err := t.resolveArgs(ctx, rawArgs)
	if err != nil {
		return nil, err
	}
	out, err := t.callTool(ctx, "producer", name, resolved)
	if err != nil {
		return nil, err
	}
	value, err := producedValue(name, out)
	if err != nil {
		return nil, err
	}
	transform, _ := spec[proxyTransformKey].(string)
	v, err := ApplyTransform(transform, value)
	if err != nil {
		return nil, err
	}
	return jsonShape(v)
}

// producedValue is what a transform sees of a producer's result: what a
// client would have found in CallResult.Data (or Text, without Data), taken
// from the Go value unrendered.
func producedValue(name string, out any) (any, error) {
	switch v := out.(type) {
	case nil:
		return "OK", nil
	case *Result:
		if len(v.Columns) == 0 {
			return v.Text(), nil
		}
		return v.tabular(), nil
	case mcp.CallResult:
		// Encoded by another server, so this data did cross a wire.
		if len(v.Data) == 0 {
			return v.Text, nil
		}
		var value any
		if err := json.Unmarshal(v.Data, &value); err != nil {
			return nil, fmt.Errorf("producer %q returned unparseable data: %w", name, err)
		}
		return value, nil
	}
	return jsonShape(out)
}

// jsonShape returns v in the shapes json.Unmarshal into any gives — what a
// handler's arguments look like — by one typed walk, no encoding. Dense
// []float64 and [][]float64 pass as they are; a leaf of any other type takes
// one marshal/unmarshal. Containers are rebuilt; the producer may keep its own.
func jsonShape(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, float64, string, []float64, [][]float64:
		return v, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case []any:
		return shapeSlice(x)
	case [][]any:
		return shapeSlice(x)
	case []string:
		return shapeSlice(x)
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			var err error
			if out[k], err = jsonShape(e); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("produced value not serializable: %w", err)
	}
	var out any
	err = json.Unmarshal(raw, &out)
	return out, err
}

func shapeSlice[T any](xs []T) (any, error) {
	if xs == nil {
		return nil, nil // as JSON null decodes
	}
	out := make([]any, len(xs))
	for i, x := range xs {
		var err error
		if out[i], err = jsonShape(x); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ApplyTransform evaluates a transform expression against a produced value.
// Expressions chain with '|': "field:features|matrix" first extracts the
// "features" field, then coerces it to a float matrix.
func ApplyTransform(expr string, v any) (any, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" || expr == "identity" || expr == "lambda x: x" {
		return v, nil
	}
	if strings.HasPrefix(expr, "lambda") {
		return nil, fmt.Errorf("unsupported lambda transform %q: only \"lambda x: x\" (identity) is recognized; use the named transforms", expr)
	}
	cur := v
	for _, step := range strings.Split(expr, "|") {
		var err error
		cur, err = applyOneTransform(strings.TrimSpace(step), cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func applyOneTransform(step string, v any) (any, error) {
	name, arg := step, ""
	if i := strings.IndexByte(step, ':'); i >= 0 {
		name, arg = step[:i], step[i+1:]
	}
	switch name {
	case "", "identity":
		return v, nil
	case "rows":
		rows, _, err := resultRows(v)
		if err != nil {
			return nil, err
		}
		return rows, nil
	case "field":
		m, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("transform field:%s: value is %T, not an object", arg, v)
		}
		fv, ok := m[arg]
		if !ok {
			return nil, fmt.Errorf("transform field:%s: no such field (have %s)", arg, mapKeys(m))
		}
		return fv, nil
	case "column":
		rows, cols, err := resultRows(v)
		if err != nil {
			return nil, err
		}
		ci := indexOfFold(cols, arg)
		if ci < 0 {
			return nil, fmt.Errorf("transform column:%s: no such column (have %v)", arg, cols)
		}
		if err := shortRow(step, rows, ci); err != nil {
			return nil, err
		}
		out := make([]any, 0, len(rows))
		for _, r := range rows {
			out = append(out, r[ci])
		}
		return out, nil
	case "matrix":
		rows, cols, err := resultRows(v)
		if err != nil {
			// Accept a bare [][] value too.
			if m, mErr := toFloatMatrix(v); mErr == nil {
				return m, nil
			}
			return nil, err
		}
		var idx []int
		if arg == "" {
			for i := range cols {
				idx = append(idx, i)
			}
		} else {
			for _, c := range strings.Split(arg, ",") {
				ci := indexOfFold(cols, strings.TrimSpace(c))
				if ci < 0 {
					return nil, fmt.Errorf("transform matrix: no column %q (have %v)", c, cols)
				}
				idx = append(idx, ci)
			}
		}
		if len(idx) > 0 {
			if err := shortRow(step, rows, slices.Max(idx)); err != nil {
				return nil, err
			}
		}
		out := make([][]float64, 0, len(rows))
		for ri, r := range rows {
			fr := make([]float64, len(idx))
			for j, ci := range idx {
				f, ok := toFloat(r[ci])
				if !ok {
					return nil, fmt.Errorf("transform matrix: row %d column %q is not numeric", ri, cols[ci])
				}
				fr[j] = f
			}
			out = append(out, fr)
		}
		return out, nil
	case "vector":
		rows, cols, err := resultRows(v)
		if err != nil {
			if vec, vErr := toFloatVector(v); vErr == nil {
				return vec, nil
			}
			return nil, err
		}
		ci := 0
		if arg != "" {
			ci = indexOfFold(cols, arg)
			if ci < 0 {
				return nil, fmt.Errorf("transform vector: no column %q (have %v)", arg, cols)
			}
		}
		if err := shortRow(step, rows, ci); err != nil {
			return nil, err
		}
		out := make([]float64, 0, len(rows))
		for ri, r := range rows {
			f, ok := toFloat(r[ci])
			if !ok {
				return nil, fmt.Errorf("transform vector: row %d is not numeric", ri)
			}
			out = append(out, f)
		}
		return out, nil
	case "first":
		rows, _, err := resultRows(v)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("transform first: empty result")
		}
		return rows[0], nil
	case "count":
		rows, _, err := resultRows(v)
		if err != nil {
			return nil, err
		}
		return len(rows), nil
	case "flatten":
		rows, _, err := resultRows(v)
		if err != nil {
			return nil, err
		}
		var out []any
		for _, r := range rows {
			out = append(out, r...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown transform %q", step)
}

// resultRows interprets a produced value as a tabular result
// ({"columns": [...], "rows": [[...]]}) and returns rows plus column names.
func resultRows(v any) ([][]any, []string, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, nil, fmt.Errorf("value is %T, not a tabular result", v)
	}
	rawRows, ok := m["rows"].([]any)
	if !ok {
		if rr, ok2 := m["rows"].([][]any); ok2 {
			cols, _ := toStringSlice(m["columns"])
			return rr, cols, nil
		}
		return nil, nil, fmt.Errorf("tabular result has no rows field")
	}
	rows := make([][]any, 0, len(rawRows))
	for _, r := range rawRows {
		switch rv := r.(type) {
		case []any:
			rows = append(rows, rv)
		default:
			rows = append(rows, []any{rv})
		}
	}
	cols, _ := toStringSlice(m["columns"])
	return rows, cols, nil
}

// shortRow reports the first row that has no column ci. A tool may return
// scalar or ragged rows, so that is an error of the input, not a bug.
func shortRow(step string, rows [][]any, ci int) error {
	for ri, r := range rows {
		if ci >= len(r) {
			return fmt.Errorf("transform %s: row %d has %d value(s), no column at index %d", step, ri, len(r), ci)
		}
	}
	return nil
}

func toStringSlice(v any) ([]string, bool) {
	switch s := v.(type) {
	case []string:
		return s, true
	case []any:
		out := make([]string, 0, len(s))
		for _, e := range s {
			str, ok := e.(string)
			if !ok {
				return nil, false
			}
			out = append(out, str)
		}
		return out, true
	}
	return nil, false
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	case int:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}

func toFloatMatrix(v any) ([][]float64, error) {
	rows, ok := v.([]any)
	if !ok {
		if m, ok2 := v.([][]float64); ok2 {
			return m, nil
		}
		return nil, fmt.Errorf("value is %T, not a matrix", v)
	}
	out := make([][]float64, 0, len(rows))
	for i, r := range rows {
		cols, ok := r.([]any)
		if !ok {
			return nil, fmt.Errorf("row %d is %T, not a list", i, r)
		}
		fr := make([]float64, len(cols))
		for j, c := range cols {
			f, ok := toFloat(c)
			if !ok {
				return nil, fmt.Errorf("value at (%d,%d) is not numeric", i, j)
			}
			fr[j] = f
		}
		out = append(out, fr)
	}
	return out, nil
}

func toFloatVector(v any) ([]float64, error) {
	items, ok := v.([]any)
	if !ok {
		if vec, ok2 := v.([]float64); ok2 {
			return vec, nil
		}
		return nil, fmt.Errorf("value is %T, not a vector", v)
	}
	out := make([]float64, len(items))
	for i, it := range items {
		f, ok := toFloat(it)
		if !ok {
			return nil, fmt.Errorf("element %d is not numeric", i)
		}
		out[i] = f
	}
	return out, nil
}

func indexOfFold(list []string, want string) int {
	for i, s := range list {
		if strings.EqualFold(s, want) {
			return i
		}
	}
	return -1
}

func mapKeys(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
