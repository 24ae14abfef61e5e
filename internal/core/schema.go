package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"bridgescope/internal/mcp"
	"bridgescope/internal/textsim"
)

// The context-retrieval tools (paper §2.2).
var (
	getSchemaTool = mcp.NewTool("get_schema",
		"Retrieve the database schema. For small databases this returns full object "+
			"definitions with your access privileges annotated; for large databases it returns object "+
			"names only (call get_object for details).", nil)
	getObjectTool = mcp.NewTool("get_object",
		"Retrieve the detailed definition (columns, keys, constraints) of one named object, with your access privileges annotated.",
		map[string]any{
			"type": "object",
			"properties": map[string]any{
				"object": map[string]any{"type": "string", "description": "object name"},
			},
			"required": []any{"object"},
		})
	getValueTool = mcp.NewTool("get_value",
		"Retrieve the top-k values in a column's domain most semantically relevant to a "+
			"task-specific key. Use this to write predicates that match the actual stored values.",
		map[string]any{
			"type": "object",
			"properties": map[string]any{
				"table":  map[string]any{"type": "string"},
				"column": map[string]any{"type": "string"},
				"key":    map[string]any{"type": "string", "description": "task-specific key to match"},
				"k":      map[string]any{"type": "integer", "description": "how many values to return"},
			},
			"required": []any{"table", "column", "key"},
		})
)

func (t *Toolkit) registerContextTools() {
	t.reg.Register(getSchemaTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		return t.getSchema()
	}))
	t.reg.Register(getObjectTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		name, _ := args["object"].(string)
		if name == "" {
			return nil, fmt.Errorf("get_object: missing required argument \"object\"")
		}
		return t.getObject(name)
	}))
	t.reg.Register(getValueTool.Bind(func(ctx context.Context, args map[string]any) (any, error) {
		table, _ := args["table"].(string)
		column, _ := args["column"].(string)
		key, _ := args["key"].(string)
		k := t.policy.valueTopK()
		if kv, ok := args["k"].(float64); ok && kv > 0 {
			k = int(kv)
		}
		if table == "" || column == "" || key == "" {
			return nil, fmt.Errorf("get_value: required arguments are table, column, key")
		}
		return t.getValue(table, column, key, k)
	}))
}

// permittedObjects lists catalog objects that pass the user-side policy.
// Objects the user holds no database privilege on are still listed (the LLM
// must know they exist and are inaccessible, paper Figure 3), but
// policy-hidden objects are omitted entirely.
func (t *Toolkit) permittedObjects() []ObjectInfo {
	var out []ObjectInfo
	for _, o := range t.conn.ListObjects() {
		if t.policy.ObjectPermitted(o.Name) {
			out = append(out, o)
		}
	}
	return out
}

// getSchema implements the adaptive strategy of §2.2: full annotated DDL
// under the threshold, hierarchical names-only above it.
func (t *Toolkit) getSchema() (any, error) {
	objs := t.permittedObjects()
	if len(objs) == 0 {
		return "The database has no objects visible to you.", nil
	}
	if len(objs) > t.policy.schemaThreshold() {
		var sb strings.Builder
		fmt.Fprintf(&sb, "The database has %d objects. Call get_object(name) for details.\n", len(objs))
		for _, o := range objs {
			access := "accessible"
			if !t.policy.DisablePrivilegeAnnotations && len(t.conn.ObjectActions(o.Name)) == 0 {
				access = "no access"
			}
			if t.policy.DisablePrivilegeAnnotations {
				fmt.Fprintf(&sb, "- %s (%s)\n", o.Name, o.Kind)
			} else {
				fmt.Fprintf(&sb, "- %s (%s, %s)\n", o.Name, o.Kind, access)
			}
		}
		return sb.String(), nil
	}
	var sb strings.Builder
	for i, o := range objs {
		if i > 0 {
			sb.WriteString("\n\n")
		}
		ddl, err := t.annotatedDDL(o.Name)
		if err != nil {
			return nil, err
		}
		sb.WriteString(ddl)
	}
	return sb.String(), nil
}

// annotatedDDL renders one object's DDL with privilege annotations
// (paper Figure 3: "-- Access: True, Permissions: ALL").
func (t *Toolkit) annotatedDDL(name string) (string, error) {
	ddl, err := t.conn.ObjectDDL(name)
	if err != nil {
		return "", err
	}
	if t.policy.DisablePrivilegeAnnotations {
		return ddl, nil
	}
	actions := t.conn.ObjectActions(name)
	if len(actions) == 0 {
		// Inaccessible objects show only their name: existence is visible,
		// structure is not.
		return fmt.Sprintf("-- Access: False\nCREATE TABLE %s (...);", name), nil
	}
	perms := strings.Join(actions, ", ")
	if len(actions) >= 7 {
		perms = "ALL"
	}
	return fmt.Sprintf("-- Access: True, Permissions: %s\n%s", perms, ddl), nil
}

func (t *Toolkit) getObject(name string) (any, error) {
	if !t.policy.ObjectPermitted(name) {
		return nil, fmt.Errorf("access to object %q is blocked by the user security policy", name)
	}
	found := false
	for _, o := range t.conn.ListObjects() {
		if strings.EqualFold(o.Name, name) {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("object %q does not exist", name)
	}
	return t.annotatedDDL(name)
}

// getValue implements the column-exemplar retrieval of §2.2 via lexical-
// semantic ranking, returning only the top-k matches instead of the full
// domain — the token-saving property the paper calls out.
func (t *Toolkit) getValue(table, column, key string, k int) (any, error) {
	if !t.policy.ObjectPermitted(table) {
		return nil, fmt.Errorf("access to object %q is blocked by the user security policy", table)
	}
	if !t.policy.DisableVerification && !t.conn.HasPrivilege("SELECT", table) {
		return nil, fmt.Errorf("permission denied: user %q lacks SELECT on %q", t.conn.User(), table)
	}
	// Cap domain enumeration; exemplar ranking does not need every value
	// of a huge column.
	vals, err := t.conn.ColumnValues(table, column, 10000)
	if err != nil {
		return nil, err
	}
	matches := textsim.TopK(key, vals, k)
	out := make([]string, len(matches))
	for i, m := range matches {
		out[i] = m.Value
	}
	raw, err := json.Marshal(map[string]any{"values": out})
	if err != nil {
		return nil, err
	}
	return mcp.CallResult{
		Text: fmt.Sprintf("Top-%d values in %s.%s relevant to %q: %s",
			len(out), table, column, key, strings.Join(out, ", ")),
		Data: raw,
	}, nil
}
