package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func cacheEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := NewEngine("cache")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, val REAL)`)
	for i := 0; i < 100; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %f)", i, i%10, float64(i)))
	}
	return e, s
}

func TestPlanCacheHitSkipsReplan(t *testing.T) {
	e, s := cacheEngine(t)
	const q = "SELECT COUNT(*) FROM t WHERE grp = 3"

	c0 := e.PlanCacheSnapshot()
	first := s.MustExec(q)
	second := s.MustExec(q)
	third := s.MustExec(q)
	c1 := e.PlanCacheSnapshot()
	if c1.Misses-c0.Misses != 1 {
		t.Fatalf("misses grew by %d, want 1 (only the cold execution)", c1.Misses-c0.Misses)
	}
	if c1.Hits-c0.Hits != 2 {
		t.Fatalf("hits grew by %d, want 2", c1.Hits-c0.Hits)
	}
	for _, r := range []*Result{first, second, third} {
		if r.Rows[0][0].I != 10 {
			t.Fatalf("cached result diverged: %v", r.Rows[0][0])
		}
	}

	// Cached writes execute too — and re-execute, not replay.
	const u = "UPDATE t SET val = val + 1 WHERE id = 7"
	s.MustExec(u)
	s.MustExec(u)
	if r := s.MustExec("SELECT val FROM t WHERE id = 7"); r.Rows[0][0].F != 9 {
		t.Fatalf("two cached updates: val = %v, want 9", r.Rows[0][0])
	}

	// Pre-parsed statements bypass the cache (no SQL text to key on).
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	c2 := e.PlanCacheSnapshot()
	if _, err := s.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}
	c3 := e.PlanCacheSnapshot()
	if c3.Hits != c2.Hits || c3.Misses != c2.Misses {
		t.Fatalf("ExecStmt touched the cache: hits %d->%d misses %d->%d", c2.Hits, c3.Hits, c2.Misses, c3.Misses)
	}
}

// DDL bumps the catalog version, so every cached plan is invalid at its
// next lookup — and the replacement plan sees the new catalog.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	e, s := cacheEngine(t)
	const q = "SELECT COUNT(*) FROM t WHERE grp = 3"

	s.MustExec(q) // cold: cached with a seq-scan source (no index yet)
	s.MustExec(q) // hit
	v := e.CatalogVersion()
	s.MustExec("CREATE INDEX idx_grp ON t (grp)")
	if e.CatalogVersion() == v {
		t.Fatal("CREATE INDEX must bump the catalog version")
	}

	c0 := e.PlanCacheSnapshot()
	if r := s.MustExec(q); r.Rows[0][0].I != 10 {
		t.Fatalf("post-DDL result wrong: %v", r.Rows[0][0])
	}
	c1 := e.PlanCacheSnapshot()
	if c1.Hits != c0.Hits || c1.Misses-c0.Misses != 1 {
		t.Fatalf("stale entry must miss: hits %d->%d, misses %d->%d", c0.Hits, c1.Hits, c0.Misses, c1.Misses)
	}
	// The re-planned statement uses the new index.
	p := mustPlan(t, s, q)
	if !strings.Contains(p.Explain(), "Index Scan on t using index idx_grp") {
		t.Fatalf("replan ignored the new index:\n%s", p.Explain())
	}
	// And the refreshed entry hits again.
	s.MustExec(q)
	if h2 := e.PlanCacheSnapshot().Hits; h2 != c1.Hits+1 {
		t.Fatalf("refreshed entry did not hit (hits %d -> %d)", c1.Hits, h2)
	}

	// DROP TABLE invalidates too; the stale plan must not resurrect the
	// table or crash — the cold path reports the missing table.
	s.MustExec("DROP TABLE t")
	if _, err := s.Exec(q); err == nil {
		t.Fatal("query against a dropped table must fail")
	}
}

// Privilege changes invalidate cached plans (grants share the catalog
// version counter), and privileges are re-checked on every execution
// regardless.
func TestPlanCacheGrantRevoke(t *testing.T) {
	e, s := cacheEngine(t)
	s.MustExec("GRANT SELECT ON t TO intern")
	intern := e.NewSession("intern")
	const q = "SELECT COUNT(*) FROM t"

	intern.MustExec(q)
	intern.MustExec(q) // cached hit for (intern, q)
	s.MustExec("REVOKE SELECT ON t FROM intern")

	var pe *PermissionError
	if _, err := intern.Exec(q); err == nil {
		t.Fatal("revoked user must not be served from the plan cache")
	} else if !errors.As(err, &pe) {
		t.Fatalf("want PermissionError, got %v", err)
	}

	// Direct Grants() mutation (no SQL) also invalidates: it shares the
	// version counter.
	v := e.CatalogVersion()
	e.Grants().Grant("intern", ActionSelect, "t")
	if e.CatalogVersion() == v {
		t.Fatal("direct grant must bump the catalog version")
	}
	intern.MustExec(q)
}

// Entries are keyed per user: one user's cached plan never leaks to
// another, whose privileges and column grants may differ.
func TestPlanCachePerUser(t *testing.T) {
	e, s := cacheEngine(t)
	s.MustExec("GRANT SELECT ON t TO alice")
	const q = "SELECT COUNT(*) FROM t"

	alice := e.NewSession("alice")
	alice.MustExec(q)
	alice.MustExec(q)

	// bob shares the SQL text but has no grant; a shared cache entry would
	// skip his cold-path rejection.
	bob := e.NewSession("bob")
	if _, err := bob.Exec(q); err == nil {
		t.Fatal("bob must not ride alice's cache entry")
	}
}

// The LRU keeps the cache bounded under statement churn.
func TestPlanCacheEviction(t *testing.T) {
	e, s := cacheEngine(t)
	for i := 0; i < planCacheCap+50; i++ {
		s.MustExec(fmt.Sprintf("SELECT val FROM t WHERE id = %d", i%100))
		s.MustExec(fmt.Sprintf("SELECT grp FROM t WHERE id = %d + %d", i, i))
	}
	e.plans.mu.Lock()
	n, l := len(e.plans.entries), e.plans.lru.Len()
	e.plans.mu.Unlock()
	if n != l {
		t.Fatalf("cache books disagree: %d entries, %d LRU slots", n, l)
	}
	if n > planCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", n, planCacheCap)
	}
}
