// Package mcp implements the tool-protocol substrate: a model-context-
// protocol-style registry of tools with JSON-RPC request/response envelopes
// over an in-memory transport.
//
// Every argument and result that passes between the model and a server
// crosses a JSON serialization boundary exactly as it would over a real MCP
// connection, so payload sizes — the quantity the paper's token accounting
// measures — are faithful. Hand-offs between tools of one server (the proxy
// calling its siblings' handlers) deliberately do not: that data never reaches
// the model, and Server.Handle is the only place a result is encoded.
package mcp

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
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

// Tool is one callable tool with its JSON-schema-style input description.
type Tool struct {
	Name        string
	Description string
	InputSchema map[string]any
	Handler     Handler
}

// ToolInfo is the wire-visible description of a tool (what an LLM sees in
// its tool list).
type ToolInfo struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	InputSchema map[string]any `json:"inputSchema,omitempty"`
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
	return &Registry{tools: map[string]*Tool{}}
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

// List returns tool descriptions in registration order.
func (r *Registry) List() []ToolInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ToolInfo, 0, len(r.order))
	for _, n := range r.order {
		t := r.tools[n]
		out = append(out, ToolInfo{Name: t.Name, Description: t.Description, InputSchema: t.InputSchema})
	}
	return out
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

// Request is a JSON-RPC 2.0 request.
type Request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      int64           `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
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

type callParams struct {
	Name      string         `json:"name"`
	Arguments map[string]any `json:"arguments"`
}

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

// Handle processes one request.
func (s *Server) Handle(ctx context.Context, req *Request) *Response {
	resp := &Response{JSONRPC: "2.0", ID: req.ID}
	switch req.Method {
	case "tools/list":
		list := s.Registry.List()
		raw, err := json.Marshal(list)
		if err != nil {
			resp.Error = &RPCError{Code: CodeToolError, Message: err.Error()}
			return resp
		}
		resp.Result = raw
		return resp
	case "tools/call":
		var params callParams
		if err := json.Unmarshal(req.Params, &params); err != nil {
			resp.Error = &RPCError{Code: CodeInvalidParams, Message: err.Error()}
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
	mu     sync.Mutex
	nextID int64
}

// NewClient connects a client to a server.
func NewClient(srv *Server) *Client { return &Client{srv: srv} }

// Registry exposes the registry of the server this client talks to.
func (c *Client) Registry() *Registry { return c.srv.Registry }

func (c *Client) roundTrip(ctx context.Context, method string, params any) (json.RawMessage, error) {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	req := &Request{JSONRPC: "2.0", ID: id, Method: method, Params: raw}
	// Serialize and re-parse the request to honor the wire boundary.
	wire, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var decoded Request
	if err := json.Unmarshal(wire, &decoded); err != nil {
		return nil, err
	}
	resp := c.srv.Handle(ctx, &decoded)
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
	var out []ToolInfo
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CallTool invokes a tool and returns its result payload. Tool-level errors
// come back as CallResult{IsErr: true}, not as a Go error, mirroring MCP.
func (c *Client) CallTool(ctx context.Context, name string, args map[string]any) (CallResult, error) {
	raw, err := c.roundTrip(ctx, "tools/call", callParams{Name: name, Arguments: args})
	if err != nil {
		return CallResult{}, err
	}
	var out CallResult
	if err := json.Unmarshal(raw, &out); err != nil {
		return CallResult{}, err
	}
	return out, nil
}
