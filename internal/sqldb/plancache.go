package sqldb

import (
	"container/list"
	"sync"
	"sync/atomic"

	"bridgescope/internal/sqldb/stats"
)

// The plan cache is the engine's prepared-statement layer: an LRU of
// parsed+planned statements keyed by (user, SQL text), shared by every
// session of an engine. A hit skips the lexer, parser, and planner
// entirely; validity is decided by comparing the entry's catalog version
// against the engine's current one (DDL and grant changes bump it), so
// invalidation never walks the cache.
//
// Cached plans are safe to share across sessions: plan nodes and ASTs are
// immutable during execution (see Env.sess), privileges are re-checked per
// execution, and SELECT hits run under the engine's read lock while
// UPDATE/DELETE hits run under the write lock, exactly like cold
// statements.

// planCacheCap bounds the number of cached statements per engine.
const planCacheCap = 256

// cachedStmt is one prepared statement.
type cachedStmt struct {
	stmt      Stmt
	readOnly  bool     // engine lock class (property of the SQL text)
	version   uint64   // catalog version the plan was built against
	lockNames []string // DML write-lock set, precomputed at this version
	sel       *SelectPlan
	write     *WritePlan
}

type cacheSlot struct {
	key string
	ent *cachedStmt
}

type planCache struct {
	mu        sync.Mutex
	entries   map[string]*list.Element
	lru       *list.List // of *cacheSlot, front = most recently used
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{entries: map[string]*list.Element{}, lru: list.New()}
}

func cacheKey(user, sql string) string { return user + "\x00" + sql }

// lookup returns the entry for (user, sql) and marks it recently used.
// Staleness against the catalog version is the caller's concern. The cache
// has its own mutex because SELECT sessions only hold the engine read lock.
func (c *planCache) lookup(user, sql string) (*cachedStmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey(user, sql)]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheSlot).ent, true
}

// put stores (or replaces) an entry, evicting the least recently used one
// past capacity.
func (c *planCache) put(user, sql string, ent *cachedStmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey(user, sql)
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheSlot).ent = ent
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheSlot{key: k, ent: ent})
	if c.lru.Len() > planCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheSlot).key)
		c.evictions.Add(1)
	}
}

// remove drops the entry for (user, sql) if present. Stale entries are
// removed at hit time rather than left for replacement: a statement that
// keeps failing after a catalog change (e.g. its table was dropped) never
// reaches the successful re-put, and letting its dead entry ride the LRU
// would evict live plans instead.
func (c *planCache) remove(user, sql string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey(user, sql)
	if el, ok := c.entries[k]; ok {
		c.lru.Remove(el)
		delete(c.entries, k)
	}
}

// snapshot reports the full counter set plus the resident entry count.
func (c *planCache) snapshot() stats.CacheStats {
	c.mu.Lock()
	size := len(c.entries)
	c.mu.Unlock()
	return stats.CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
	}
}
