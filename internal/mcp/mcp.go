// Package mcp implements the tool-protocol substrate: a model-context-
// protocol-style registry of tools with JSON-RPC request/response envelopes
// over an in-memory transport.
//
// Every argument and result that passes between the model and a server
// crosses a JSON serialization boundary exactly as it would over a real MCP
// connection, so payload sizes — the quantity the paper's token accounting
// measures — are faithful. Each direction is one codec pass: the client
// marshals a Request, params included, once and Server.serve unmarshals it
// once, so a handler's arguments were always parsed from bytes; Server.Handle
// is the only place a result is encoded, and the client decodes it once.
// Hand-offs between tools of one server (the proxy calling its siblings'
// handlers) deliberately cross no boundary: that data never reaches the model.
//
// What does not vary between calls is encoded once: a tool's input schema is
// held as JSON, NewTool encodes a definition's tools/list entry for every
// copy and registry it will be bound into, and tools/list joins the entries.
// Nothing is cached per registry, so Register and Unregister invalidate
// nothing.
package mcp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Handler executes a tool call. Server.Handle encodes what it returns: a
// string as a plain-text payload, a Renderer by its Render, the rest as JSON.
type Handler func(ctx context.Context, args map[string]any) (any, error)

// Renderer is a handler result whose wire form is not its json.Marshal form
// (a database result shows the model a text table and carries its rows as
// Data). Only Server.Handle calls Render.
type Renderer interface {
	Render() CallResult
}

// Tool is one callable tool with its JSON-schema-style input description,
// held encoded. A copy with another Handler is the same tool to a client.
type Tool struct {
	Name        string
	Description string
	InputSchema json.RawMessage
	Handler     Handler

	// entry is what NewTool encoded; copies share it.
	entry *listEntry
}

// ToolInfo is the wire-visible description of a tool (what an LLM sees in
// its tool list).
type ToolInfo struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	InputSchema json.RawMessage `json:"inputSchema,omitempty"`
}

// listEntry is a description and the tools/list element that encodes it.
type listEntry struct {
	info ToolInfo
	wire json.RawMessage
}

// NewTool describes a tool once for every toolkit that will Bind a handler
// to it: the schema is encoded here (keys sorted, as json.Marshal orders a
// map) and so is the tool's tools/list entry. Definitions are package-level
// values, so a schema that cannot be encoded is a bug and panics at start-up.
func NewTool(name, description string, schema map[string]any) Tool {
	encode := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("mcp: tool %q: %v", name, err))
		}
		return raw
	}
	t := Tool{Name: name, Description: description}
	if len(schema) > 0 {
		t.InputSchema = encode(schema)
	}
	t.entry = &listEntry{info: t.info(), wire: encode(t.info())}
	return t
}

// Bind returns a copy of t whose handler is h.
func (t Tool) Bind(h Handler) *Tool {
	t.Handler = h
	return &t
}

func (t *Tool) info() ToolInfo {
	return ToolInfo{Name: t.Name, Description: t.Description, InputSchema: t.InputSchema}
}

// listEntry returns the tool's tools/list element: NewTool's while it still
// describes the tool, else encoded now.
func (t *Tool) listEntry() (json.RawMessage, error) {
	if e := t.entry; e != nil && e.info.Name == t.Name && e.info.Description == t.Description &&
		bytes.Equal(e.info.InputSchema, t.InputSchema) {
		return e.wire, nil
	}
	return json.Marshal(t.info())
}

// Registry holds the tools a server exposes. It preserves registration
// order so tool lists render deterministically.
type Registry struct {
	mu    sync.RWMutex
	tools map[string]*Tool
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	// Sized for a full toolkit, so building one does not regrow them.
	return &Registry{tools: make(map[string]*Tool, 16), order: make([]string, 0, 16)}
}

// Register adds a tool; re-registering a name replaces it in place.
func (r *Registry) Register(t *Tool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.tools[t.Name]; !exists {
		r.order = append(r.order, t.Name)
	}
	r.tools[t.Name] = t
}

// Unregister removes a tool by name.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.tools[name]; !exists {
		return
	}
	delete(r.tools, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Get returns a tool by name.
func (r *Registry) Get(name string) (*Tool, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tools[name]
	return t, ok
}

// listJSON is the tools/list result: the tools' entries in registration order.
func (r *Registry) listJSON() (json.RawMessage, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append(make([]byte, 0, 8<<10), '[') // a full toolkit lists in about 6 KB
	for i, n := range r.order {
		entry, err := r.tools[n].listEntry()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, entry...)
	}
	return append(out, ']'), nil
}

// Names returns the registered tool names sorted alphabetically.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string{}, r.order...)
	sort.Strings(out)
	return out
}

// --- JSON-RPC style envelopes ---

// Request is a JSON-RPC 2.0 request. Params is typed so the envelope and
// the arguments are encoded, and decoded, in one pass.
type Request struct {
	JSONRPC string      `json:"jsonrpc"`
	ID      int64       `json:"id"`
	Method  string      `json:"method"`
	Params  *CallParams `json:"params,omitempty"`
}

// CallParams is the params object of tools/call.
type CallParams struct {
	Name      string         `json:"name"`
	Arguments map[string]any `json:"arguments"`
}

// Response is a JSON-RPC 2.0 response.
type Response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      int64           `json:"id"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *RPCError       `json:"error,omitempty"`
}

// RPCError is a JSON-RPC error object.
type RPCError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *RPCError) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

// JSON-RPC error codes used by the server.
const (
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeToolError      = -32000
)

// CallResult is the result payload of tools/call. Text carries the rendered
// content shown to the LLM; Data carries the structured payload for
// tool-to-tool transfer (what the proxy mechanism forwards without LLM
// involvement).
type CallResult struct {
	Text  string          `json:"text"`
	Data  json.RawMessage `json:"data,omitempty"`
	IsErr bool            `json:"isError,omitempty"`
}

// Server dispatches JSON-RPC requests against a registry.
type Server struct {
	Registry *Registry
}

// NewServer wraps a registry.
func NewServer(r *Registry) *Server { return &Server{Registry: r} }

// serve decodes one request off the wire — the request direction's only
// decode — and handles it.
func (s *Server) serve(ctx context.Context, wire []byte) *Response {
	var req Request
	if err := json.Unmarshal(wire, &req); err != nil {
		return &Response{JSONRPC: "2.0", Error: &RPCError{Code: CodeInvalidParams, Message: err.Error()}}
	}
	return s.Handle(ctx, &req)
}

// Handle processes one decoded request.
func (s *Server) Handle(ctx context.Context, req *Request) *Response {
	resp := &Response{JSONRPC: "2.0", ID: req.ID}
	switch req.Method {
	case "tools/list":
		raw, err := s.Registry.listJSON()
		if err != nil {
			resp.Error = &RPCError{Code: CodeToolError, Message: err.Error()}
			return resp
		}
		resp.Result = raw
		return resp
	case "tools/call":
		params := req.Params
		if params == nil {
			resp.Error = &RPCError{Code: CodeInvalidParams, Message: "tools/call without params"}
			return resp
		}
		tool, ok := s.Registry.Get(params.Name)
		if !ok {
			resp.Error = &RPCError{Code: CodeMethodNotFound, Message: fmt.Sprintf("unknown tool %q", params.Name)}
			return resp
		}
		out, err := tool.Handler(ctx, params.Arguments)
		if err != nil {
			// Tool-level failures are delivered as error content, like MCP
			// isError results: the LLM sees them and can react.
			raw, _ := json.Marshal(CallResult{Text: "ERROR: " + err.Error(), IsErr: true})
			resp.Result = raw
			return resp
		}
		cr, err := renderResult(out)
		if err != nil {
			resp.Error = &RPCError{Code: CodeToolError, Message: err.Error()}
			return resp
		}
		raw, err := json.Marshal(cr)
		if err != nil {
			resp.Error = &RPCError{Code: CodeToolError, Message: err.Error()}
			return resp
		}
		resp.Result = raw
		return resp
	}
	resp.Error = &RPCError{Code: CodeMethodNotFound, Message: fmt.Sprintf("unknown method %q", req.Method)}
	return resp
}

func renderResult(out any) (CallResult, error) {
	switch v := out.(type) {
	case nil:
		return CallResult{Text: "OK"}, nil
	case string:
		return CallResult{Text: v}, nil
	case CallResult:
		return v, nil
	case Renderer:
		return v.Render(), nil
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return CallResult{}, fmt.Errorf("tool result not serializable: %w", err)
		}
		return CallResult{Text: string(raw), Data: raw}, nil
	}
}

// Client issues requests to an in-process server through the same JSON
// envelope a remote client would use.
type Client struct {
	srv    *Server
	nextID atomic.Int64
}

// NewClient connects a client to a server.
func NewClient(srv *Server) *Client { return &Client{srv: srv} }

// Registry exposes the registry of the server this client talks to.
func (c *Client) Registry() *Registry { return c.srv.Registry }

func (c *Client) roundTrip(ctx context.Context, method string, params *CallParams) (json.RawMessage, error) {
	// The request direction's only encode; what serve receives is what a
	// transport would carry.
	wire, err := json.Marshal(&Request{JSONRPC: "2.0", ID: c.nextID.Add(1), Method: method, Params: params})
	if err != nil {
		return nil, err
	}
	resp := c.srv.serve(ctx, wire)
	if resp.Error != nil {
		return nil, resp.Error
	}
	return resp.Result, nil
}

// ListTools fetches the server's tool list.
func (c *Client) ListTools(ctx context.Context) ([]ToolInfo, error) {
	raw, err := c.roundTrip(ctx, "tools/list", nil)
	if err != nil {
		return nil, err
	}
	out := make([]ToolInfo, 0, 16) // a full toolkit, so decoding does not regrow it
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CallTool invokes a tool and returns its result payload. Tool-level errors
// come back as CallResult{IsErr: true}, not as a Go error, mirroring MCP.
func (c *Client) CallTool(ctx context.Context, name string, args map[string]any) (CallResult, error) {
	raw, err := c.roundTrip(ctx, "tools/call", &CallParams{Name: name, Arguments: args})
	if err != nil {
		return CallResult{}, err
	}
	var out CallResult
	if err := json.Unmarshal(raw, &out); err != nil {
		return CallResult{}, err
	}
	return out, nil
}
