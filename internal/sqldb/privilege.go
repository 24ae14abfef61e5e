package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Action is a database privilege action, mirroring PostgreSQL's table
// privileges plus DDL actions.
type Action uint8

// The privilege actions.
const (
	ActionNone Action = iota
	ActionSelect
	ActionInsert
	ActionUpdate
	ActionDelete
	ActionCreate
	ActionDrop
	ActionAlter
	ActionGrant
)

// AllActions lists every grantable action.
var AllActions = []Action{
	ActionSelect, ActionInsert, ActionUpdate, ActionDelete,
	ActionCreate, ActionDrop, ActionAlter,
}

// String returns the SQL keyword for the action.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "NONE"
	case ActionSelect:
		return "SELECT"
	case ActionInsert:
		return "INSERT"
	case ActionUpdate:
		return "UPDATE"
	case ActionDelete:
		return "DELETE"
	case ActionCreate:
		return "CREATE"
	case ActionDrop:
		return "DROP"
	case ActionAlter:
		return "ALTER"
	case ActionGrant:
		return "GRANT"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// ParseAction converts a SQL keyword to an Action.
func ParseAction(s string) (Action, bool) {
	return actionFromKeyword(strings.ToUpper(strings.TrimSpace(s)))
}

type actionSet uint16

func (s actionSet) has(a Action) bool { return s&(1<<a) != 0 }
func (s *actionSet) add(a Action)     { *s |= 1 << a }
func (s *actionSet) remove(a Action)  { *s &^= 1 << a }

// Grants is the privilege store: per-user action sets per object, optional
// column restrictions, and superuser flags. The object "*" stands for all
// tables (and for CREATE, the database itself).
type Grants struct {
	// mu guards the maps. Grants may be mutated directly through
	// Engine.Grants() (fixtures, toolkits) without the engine lock, while
	// sessions holding only the engine read lock check privileges — so the
	// store synchronizes itself.
	mu    sync.RWMutex
	super map[string]bool                 // user -> superuser
	objs  map[string]map[string]actionSet // user -> object(lower) -> actions
	// cols restricts an (user, object, action) grant to named columns.
	// Absent entry means all columns.
	cols map[string]map[string]map[Action]map[string]bool
	// version is the engine's catalog version counter; every privilege
	// mutation bumps it so cached plans (whose privilege checks were made
	// under the old grants) are re-validated.
	version *atomic.Uint64
	// logger, when set (durable engines), receives every privilege mutation
	// so it can be appended to the WAL. It covers both GRANT/REVOKE SQL and
	// direct API use — there may be no statement text to log. Atomic because
	// grants are mutated without the engine lock.
	logger atomic.Pointer[grantLogger]
}

// grantLogger wraps the WAL append callback for privilege mutations.
type grantLogger struct{ fn func(grantChange) }

// log fires the change hook outside the store's lock.
func (g *Grants) log(ch grantChange) {
	if l := g.logger.Load(); l != nil {
		l.fn(ch)
	}
}

func newGrants(version *atomic.Uint64) *Grants {
	return &Grants{
		super:   map[string]bool{"root": true},
		objs:    map[string]map[string]actionSet{},
		cols:    map[string]map[string]map[Action]map[string]bool{},
		version: version,
	}
}

func (g *Grants) bump() {
	if g.version != nil {
		g.version.Add(1)
	}
}

// SetSuperuser marks or unmarks a user as superuser.
func (g *Grants) SetSuperuser(user string, super bool) {
	g.mu.Lock()
	g.super[strings.ToLower(user)] = super
	g.mu.Unlock()
	g.bump()
	g.log(grantChange{Op: grantOpSuper, User: user, Super: super})
}

// IsSuperuser reports whether the user bypasses privilege checks.
func (g *Grants) IsSuperuser(user string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.super[strings.ToLower(user)]
}

// Grant adds an action on an object ("*" = all tables) for a user.
func (g *Grants) Grant(user string, action Action, object string) {
	g.mu.Lock()
	g.grantLocked(user, action, object)
	g.mu.Unlock()
	g.bump()
	g.log(grantChange{Op: grantOpGrant, User: user, Action: action, Object: object})
}

func (g *Grants) grantLocked(user string, action Action, object string) {
	u, o := strings.ToLower(user), strings.ToLower(object)
	if g.objs[u] == nil {
		g.objs[u] = map[string]actionSet{}
	}
	set := g.objs[u][o]
	set.add(action)
	g.objs[u][o] = set
}

// GrantAll grants every action on an object to a user.
func (g *Grants) GrantAll(user, object string) {
	for _, a := range AllActions {
		g.Grant(user, a, object)
	}
}

// Revoke removes an action on an object from a user (and drops any column
// restriction bound to it).
func (g *Grants) Revoke(user string, action Action, object string) {
	g.mu.Lock()
	u, o := strings.ToLower(user), strings.ToLower(object)
	if g.objs[u] != nil {
		set := g.objs[u][o]
		set.remove(action)
		if set == 0 {
			delete(g.objs[u], o)
		} else {
			g.objs[u][o] = set
		}
		if g.cols[u] != nil && g.cols[u][o] != nil {
			delete(g.cols[u][o], action)
		}
	}
	g.mu.Unlock()
	g.bump()
	g.log(grantChange{Op: grantOpRevoke, User: user, Action: action, Object: object})
}

// RevokeAll removes every action on an object from a user.
func (g *Grants) RevokeAll(user, object string) {
	for _, a := range AllActions {
		g.Revoke(user, a, object)
	}
}

// GrantColumns grants an action on an object restricted to the given
// columns (PostgreSQL column privileges).
func (g *Grants) GrantColumns(user string, action Action, object string, columns []string) {
	g.mu.Lock()
	g.grantLocked(user, action, object)
	u, o := strings.ToLower(user), strings.ToLower(object)
	if g.cols[u] == nil {
		g.cols[u] = map[string]map[Action]map[string]bool{}
	}
	if g.cols[u][o] == nil {
		g.cols[u][o] = map[Action]map[string]bool{}
	}
	set := map[string]bool{}
	for _, c := range columns {
		set[strings.ToLower(c)] = true
	}
	g.cols[u][o][action] = set
	g.mu.Unlock()
	g.bump()
	g.log(grantChange{Op: grantOpGrantCols, User: user, Action: action, Object: object, Columns: columns})
}

// Has reports whether the user may perform action on object. Superusers may
// do anything; "*" grants cover every object.
func (g *Grants) Has(user string, action Action, object string) bool {
	if action == ActionNone {
		return true
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	u, o := strings.ToLower(user), strings.ToLower(object)
	if g.super[u] {
		return true
	}
	if m := g.objs[u]; m != nil {
		if m[o].has(action) || m["*"].has(action) {
			return true
		}
	}
	return false
}

// AllowedColumns returns the column restriction for (user, action, object):
// nil means all columns are allowed (or no grant at all — pair with Has).
// The returned map is never mutated in place (GrantColumns publishes a
// fresh map), so callers may read it after the lock is released.
func (g *Grants) AllowedColumns(user string, action Action, object string) map[string]bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	u, o := strings.ToLower(user), strings.ToLower(object)
	if g.super[u] {
		return nil
	}
	if g.cols[u] == nil || g.cols[u][o] == nil {
		return nil
	}
	return g.cols[u][o][action]
}

// ObjectActions returns the actions a user holds on a specific object,
// including via "*" grants, sorted for stable output.
func (g *Grants) ObjectActions(user, object string) []Action {
	var out []Action
	for _, a := range AllActions {
		if g.Has(user, a, object) {
			out = append(out, a)
		}
	}
	return out
}

// dump serializes the whole privilege store as a sequence of idempotent
// changes, sorted for deterministic snapshots. Applying them in order to an
// empty store reproduces the current state.
func (g *Grants) dump() []grantChange {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []grantChange

	supers := make([]string, 0, len(g.super))
	for u := range g.super {
		supers = append(supers, u)
	}
	sort.Strings(supers)
	for _, u := range supers {
		// "root" is implicitly superuser in a fresh store, but an explicit
		// record keeps SetSuperuser("root", false) restorable.
		out = append(out, grantChange{Op: grantOpSuper, User: u, Super: g.super[u]})
	}

	users := make([]string, 0, len(g.objs))
	for u := range g.objs {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		objs := make([]string, 0, len(g.objs[u]))
		for o := range g.objs[u] {
			objs = append(objs, o)
		}
		sort.Strings(objs)
		for _, o := range objs {
			set := g.objs[u][o]
			for a := ActionSelect; a <= ActionGrant; a++ {
				if !set.has(a) {
					continue
				}
				// The presence of the restriction map is what matters, not
				// whether it names any columns: an empty restriction means
				// "no columns allowed", and dumping it as an unrestricted
				// grant would widen privileges across a restart.
				var restrict map[string]bool
				if g.cols[u] != nil && g.cols[u][o] != nil {
					restrict = g.cols[u][o][a]
				}
				if restrict != nil {
					cols := make([]string, 0, len(restrict))
					for c := range restrict {
						cols = append(cols, c)
					}
					sort.Strings(cols)
					out = append(out, grantChange{Op: grantOpGrantCols, User: u, Action: a, Object: o, Columns: cols})
				} else {
					out = append(out, grantChange{Op: grantOpGrant, User: u, Action: a, Object: o})
				}
			}
		}
	}
	return out
}

// apply replays one dumped or WAL-logged privilege change through the
// normal mutators (recovery runs with no logger attached, so nothing is
// re-logged).
func (g *Grants) apply(ch grantChange) {
	switch ch.Op {
	case grantOpSuper:
		g.SetSuperuser(ch.User, ch.Super)
	case grantOpGrant:
		g.Grant(ch.User, ch.Action, ch.Object)
	case grantOpRevoke:
		g.Revoke(ch.User, ch.Action, ch.Object)
	case grantOpGrantCols:
		g.GrantColumns(ch.User, ch.Action, ch.Object, ch.Columns)
	}
}
