// Package serve is the concurrent query-serving layer: it turns the
// one-shot samplers of internal/core into a system that answers heavy
// streams of durability prediction queries.
//
// The paper pays the adaptive level search of §5.2 once per query. Under
// serving workloads many queries share a model and a threshold family, so
// the search — often the dominant cost for a single query — can be
// amortized: a PlanCache memoizes level-partition plans keyed by the query
// shape (model, observer, normalized-threshold bucket, horizon, splitting
// ratio) with single-flight deduplication, so N concurrent queries of the
// same shape trigger exactly one search. This is the same reuse instinct
// as incremental view maintenance under updates: the expensive derived
// structure (here a partition plan) outlives the single query that built
// it. A Runner executes queries through the cache, and a Server adds a
// worker-pool scheduler with admission control for network front ends.
//
// Plan reuse never affects correctness: both MLSS estimators are unbiased
// under any partition plan (§3.2, §4.1); the plan only decides efficiency.
// Reusing a plan searched at a nearby threshold is therefore safe, and the
// bucket width bounds how far "nearby" stretches.
package serve

import (
	"container/list"
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"durability/internal/core"
	"durability/internal/planstats"
)

// DefaultBetaBucketWidth is the relative width of a normalized-threshold
// bucket: thresholds within ~10% of one another share a cached plan. The
// value function is f = z/beta clamped to [0,1], so plans are expressed
// relative to the threshold and transfer across small threshold changes.
const DefaultBetaBucketWidth = 0.10

// DefaultPlanCacheCap bounds the number of completed plans the cache keeps
// resident. Every distinct query shape costs one entry, so an adversarial
// stream of never-repeating shapes (say, a fresh horizon per request) would
// otherwise grow the map without bound.
const DefaultPlanCacheCap = 1024

// PlanKey identifies a family of queries that can share a partition plan.
// It is the plan ledger's key type, so booking a run needs no copy.
type PlanKey = planstats.Key

// SearchFunc runs a level search and returns the plan plus the simulator
// invocations it consumed.
type SearchFunc func(ctx context.Context) (core.Plan, int64, error)

// cacheEntry is one memoized (or in-flight) search. ready is closed when
// plan/steps/err are final. elem is the entry's node in the LRU list; it
// is nil while the search is in flight (in-flight entries are never
// evicted — waiters hold a pointer to the entry, not to the map slot).
// doomed marks an in-flight entry invalidated mid-search: its result is
// handed to the waiters but discarded instead of retained.
type cacheEntry struct {
	ready  chan struct{}
	plan   core.Plan
	steps  int64
	err    error
	elem   *list.Element
	doomed bool
	// hits counts lookups this entry served (waiters included); warmed
	// marks entries inserted from a snapshot instead of a search. Both
	// feed the per-plan introspection of Entries.
	hits   atomic.Int64
	warmed bool
}

// PlanCache memoizes level-partition plans by query shape with
// single-flight deduplication: the first caller for a key runs the search,
// concurrent callers for the same key block until it finishes, and later
// callers get the plan for free. Failed searches are evicted so a
// transient error (for example a cancelled context) does not poison the
// key forever. Completed plans are kept in LRU order and capped, so an
// adversarial stream of never-repeating query shapes cannot grow the
// cache without bound.
type PlanCache struct {
	bucketWidth float64
	capacity    int

	mu      sync.Mutex
	entries map[PlanKey]*cacheEntry
	lru     *list.List // completed keys, front = most recently used

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	invalidated atomic.Int64
	warmed      atomic.Int64
	searchSteps atomic.Int64
}

// CacheOption configures a PlanCache beyond its bucket width.
type CacheOption func(*PlanCache)

// WithCacheCapacity caps the number of completed plans kept resident
// (default DefaultPlanCacheCap); the least recently used plan is evicted
// beyond the cap. n <= 0 removes the cap.
func WithCacheCapacity(n int) CacheOption {
	return func(c *PlanCache) { c.capacity = n }
}

// NewPlanCache builds a cache with the given relative threshold-bucket
// width; width <= 0 selects DefaultBetaBucketWidth.
func NewPlanCache(bucketWidth float64, opts ...CacheOption) *PlanCache {
	if bucketWidth <= 0 {
		bucketWidth = DefaultBetaBucketWidth
	}
	c := &PlanCache{
		bucketWidth: bucketWidth,
		capacity:    DefaultPlanCacheCap,
		entries:     make(map[PlanKey]*cacheEntry),
		lru:         list.New(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BucketBeta maps a positive threshold onto its logarithmic bucket: two
// thresholds land in the same bucket when they differ by less than
// (roughly) the bucket width, at any magnitude.
func (c *PlanCache) BucketBeta(beta float64) int {
	if beta <= 0 || math.IsInf(beta, 0) || math.IsNaN(beta) {
		return math.MinInt32 // sentinel bucket; such queries fail validation upstream
	}
	return int(math.Floor(math.Log(beta) / math.Log1p(c.bucketWidth)))
}

// RepresentativeBeta returns the canonical threshold of beta's bucket (its
// geometric midpoint). Plan searches run at the representative, not at the
// threshold of whichever query reaches the cache first, so the cached plan
// for a bucket is a pure function of the key: concurrent queries racing
// the single-flight search cannot make results scheduling-dependent.
func (c *PlanCache) RepresentativeBeta(beta float64) float64 {
	b := c.BucketBeta(beta)
	if b == math.MinInt32 {
		return beta
	}
	return math.Pow(1+c.bucketWidth, float64(b)+0.5)
}

// Key assembles a PlanKey for a threshold query shape. start is the
// start-state drift bucket — 0 for queries answered from a model's
// canonical initial state, and the bucketed normalized start value for
// standing queries maintained against a live state (internal/stream).
func (c *PlanCache) Key(model, observer string, beta float64, horizon, ratio int, search string, start int) PlanKey {
	return PlanKey{
		Model:      model,
		Observer:   observer,
		BetaBucket: c.BucketBeta(beta),
		Horizon:    horizon,
		Ratio:      ratio,
		Search:     search,
		Start:      start,
	}
}

// GetOrSearch returns the plan for key, running search to fill the cache
// on a miss. Exactly one search runs per key at a time; concurrent callers
// wait for it (or their own context). The reported steps are nonzero only
// for the caller that actually ran the search — waiters and later hits pay
// nothing, which is precisely the amortization being measured.
func (c *PlanCache) GetOrSearch(ctx context.Context, key PlanKey, search SearchFunc) (plan core.Plan, steps int64, hit bool, err error) {
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{ready: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()

			e.plan, e.steps, e.err = search(ctx)
			// Steps were burned whether or not the search succeeded; the
			// cost accounting must not hide failed or cancelled searches.
			c.searchSteps.Add(e.steps)
			c.mu.Lock()
			if c.entries[key] == e {
				if e.err != nil || e.doomed {
					// Failed searches evict so the next caller can retry
					// (waiters see the error through the entry they hold);
					// searches invalidated mid-flight are discarded rather
					// than retained, so the next lookup re-searches.
					delete(c.entries, key)
				} else {
					e.elem = c.lru.PushFront(key)
					c.enforceCapLocked()
				}
			}
			c.mu.Unlock()
			close(e.ready)
			if e.err != nil {
				return core.Plan{}, e.steps, false, e.err
			}
			c.misses.Add(1)
			return e.plan, e.steps, false, nil
		}
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()

		select {
		case <-e.ready:
		case <-ctx.Done():
			return core.Plan{}, 0, false, ctx.Err()
		}
		if e.err != nil {
			// The owner failed and evicted the entry; retry (possibly
			// becoming the new owner) unless we are cancelled ourselves.
			if ctx.Err() != nil {
				return core.Plan{}, 0, false, ctx.Err()
			}
			continue
		}
		c.hits.Add(1)
		e.hits.Add(1)
		return e.plan, 0, true, nil
	}
}

// enforceCapLocked evicts least-recently-used completed entries beyond the
// capacity. Callers must hold c.mu. In-flight entries are not in the LRU
// and never count against the cap.
func (c *PlanCache) enforceCapLocked() {
	if c.capacity <= 0 {
		return
	}
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		key := back.Value.(PlanKey)
		c.lru.Remove(back)
		delete(c.entries, key)
		c.evictions.Add(1)
	}
}

// Invalidate removes every completed plan whose key matches pred and
// reports how many were dropped. It is the hook live-state subsystems use
// when a model's dynamics change (say, a stream is re-registered with a
// recalibrated process): plans tuned for the old dynamics remain unbiased
// but may be badly shaped, so they are dropped and re-searched on next
// use. A search still in flight keeps deduplicating concurrent callers
// until it finishes — they receive its (stale but unbiased) plan — and
// is then discarded instead of retained; such entries are not counted.
func (c *PlanCache) Invalidate(pred func(PlanKey) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.entries {
		if !pred(key) {
			continue
		}
		if e.elem == nil {
			// In flight: the owner discards the result on completion.
			e.doomed = true
			continue
		}
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		n++
	}
	c.invalidated.Add(int64(n))
	return n
}

// WarmPlan is one exported cache entry: a completed plan together with the
// key it serves. Serving-state snapshots (internal/persist) carry the warm
// set so a recovered server answers its first queries without re-searching.
type WarmPlan struct {
	Key  PlanKey
	Plan core.Plan
}

// Export returns every completed plan in least-recently-used-first order,
// so warming a fresh cache by inserting them in sequence reproduces the
// exporting cache's recency order (the last insert is the most recent).
// In-flight searches are not exported — their waiters hold the entry, but
// a snapshot must not publish a plan that may still fail or be doomed.
func (c *PlanCache) Export() []WarmPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WarmPlan, 0, c.lru.Len())
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		key := e.Value.(PlanKey)
		out = append(out, WarmPlan{Key: key, Plan: c.entries[key].plan})
	}
	return out
}

// Warm inserts a completed plan for key without running a search — the
// recovery path filling a fresh cache from a snapshot's export. A key that
// already holds an entry (completed or in flight) is left untouched: live
// traffic racing a recovery warm-start must never have a plan swapped out
// from under it, and a search already under way will produce an equivalent
// plan anyway (searches are pure functions of the key and the searching
// state). Warm counts against the LRU cap like any completed entry.
func (c *PlanCache) Warm(key PlanKey, plan core.Plan) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &cacheEntry{ready: make(chan struct{}), plan: plan, warmed: true}
	close(e.ready)
	c.entries[key] = e
	e.elem = c.lru.PushFront(key)
	c.enforceCapLocked()
	c.warmed.Add(1)
	return true
}

// CachedPlan is one completed cache entry as the plan-introspection
// endpoint sees it: the key, the plan it memoizes, and how the entry got
// here and how often it was used.
type CachedPlan struct {
	Key    PlanKey
	Plan   core.Plan
	Hits   int64 // lookups this entry served (single-flight waiters included)
	Warmed bool  // inserted from a snapshot instead of a search
}

// Entries returns every completed plan sorted by key — the canonical
// order GET /plans serves, independent of insertion or recency. In-flight
// and failed searches are excluded, like Export.
func (c *PlanCache) Entries() []CachedPlan {
	c.mu.Lock()
	out := make([]CachedPlan, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		key := e.Value.(PlanKey)
		ent := c.entries[key]
		out = append(out, CachedPlan{Key: key, Plan: ent.plan, Hits: ent.hits.Load(), Warmed: ent.warmed})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// Peek returns the cached plan for key without triggering a search. It
// reports false while the key is missing or still in flight.
func (c *PlanCache) Peek(key PlanKey) (core.Plan, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return core.Plan{}, false
	}
	select {
	case <-e.ready:
	default:
		return core.Plan{}, false
	}
	if e.err != nil {
		return core.Plan{}, false
	}
	return e.plan, true
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries     int   // completed plans resident
	Hits        int64 // lookups served from cache (including single-flight waiters)
	Misses      int64 // lookups whose search completed a plan
	Evictions   int64 // completed plans dropped by the LRU cap
	Invalidated int64 // completed plans dropped by Invalidate
	Warmed      int64 // plans inserted without a search (snapshot warm-start)
	SearchSteps int64 // total simulator invocations spent on searches, failed ones included
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Entries:     n,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Invalidated: c.invalidated.Load(),
		Warmed:      c.warmed.Load(),
		SearchSteps: c.searchSteps.Load(),
	}
}
