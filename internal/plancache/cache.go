package plancache

import (
	"container/list"
	"sync"
	"time"

	"freejoin/internal/obs"
)

// Outcome classifies what a Cache.Do lookup did.
type Outcome int

// Lookup outcomes. Miss ran the compute function and (on success)
// populated the cache; Hit returned a resident entry; Coalesced waited
// for a concurrent identical miss and shared its result (singleflight).
const (
	Miss Outcome = iota
	Hit
	Coalesced
)

// String returns the outcome name as rendered in optimizer traces.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 128

// Cache is a process-wide plan cache: one LRU with singleflight
// coalescing and stats-epoch invalidation, entered two ways. DoAt keys
// a plan by its query graph's canonical fingerprint; Get and Put key it
// by query text (StatementKey), so a repeated statement skips parsing,
// analysis and fingerprinting too. Both kinds of entry share the
// capacity, the LRU order and the epoch scoping. Values are opaque (the
// optimizer stores its plans; keeping the type out of this package
// avoids an import cycle) and must be immutable once cached — every hit
// shares the same value.
//
// Entries are keyed by full strings (a fingerprint's canonical text, a
// statement's text), not 64-bit hashes, so two queries can collide only
// by being the same query. Each entry remembers the stats epoch it was
// optimized under; a lookup whose epoch differs drops the entry and
// re-optimizes, so stale cardinalities can never pin an old plan.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // key -> element in lru
	lru     *list.List               // front = most recently used; values are *entry
	flights map[string]*flight       // canon+epoch -> in-progress optimization
}

type entry struct {
	key   string
	epoch uint64
	value any
}

type flight struct {
	done  chan struct{}
	value any
	err   error
}

// New returns a cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Cap returns the entry bound the cache was created with.
func (c *Cache) Cap() int {
	return c.cap
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Invalidate drops every resident entry (in-flight optimizations are
// unaffected; they complete and re-populate under their own epoch).
func (c *Cache) Invalidate() {
	c.mu.Lock()
	n := c.lru.Len()
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.mu.Unlock()
	if n > 0 {
		obs.PlanCacheInvalidations.Add(int64(n))
		obs.PlanCacheEntries.Add(int64(-n))
	}
}

// flightKey scopes singleflight coalescing to one (query, epoch) pair:
// a lookup under a newer epoch must not share a plan being optimized
// against stale statistics.
func flightKey(canon string, epoch uint64) string {
	var buf [20]byte
	b := append(buf[:0], canon...)
	b = append(b, 0)
	for i := 0; i < 8; i++ {
		b = append(b, byte(epoch>>(8*i)))
	}
	return string(b)
}

// Do looks up the plan for fp at the given fixed stats epoch, calling
// compute to produce it on a miss. Concurrent Do calls with the same
// fingerprint and epoch run compute exactly once; the others block and
// share the result (including an error — an error is never cached, so
// the next lookup retries). The returned Outcome says which path was
// taken. The cached value is shared across callers and must be treated
// as immutable.
func (c *Cache) Do(fp Fingerprint, epoch uint64, compute func() (any, error)) (any, Outcome, error) {
	return c.DoAt(fp, func() uint64 { return epoch }, compute)
}

// DoAt is Do against a live epoch source (typically
// storage.Catalog.StatsEpoch). The epoch is read once before the lookup
// and re-read after compute returns: a plan computed against epoch E is
// cached only if the catalog is still at E at insert time. Without the
// revalidation, a catalog change landing between the lookup and the
// insert (a concurrent Add's Table.onChange bump) would cache a plan
// computed against partly stale statistics under the new epoch, serving
// it until the next bump. The caller still receives the computed plan —
// it is correct to execute, merely not worth caching.
func (c *Cache) DoAt(fp Fingerprint, epochAt func() uint64, compute func() (any, error)) (any, Outcome, error) {
	start := time.Now()
	epoch := epochAt()

	c.mu.Lock()
	if v, ok := c.lookupLocked(fp.Canon, epoch); ok {
		c.mu.Unlock()
		CountHit(time.Since(start))
		return v, Hit, nil
	}
	fkey := flightKey(fp.Canon, epoch)
	if fl, ok := c.flights[fkey]; ok {
		c.mu.Unlock()
		<-fl.done
		obs.PlanCacheCoalesced.Inc()
		return fl.value, Coalesced, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[fkey] = fl
	c.mu.Unlock()

	value, err := compute()
	fl.value, fl.err = value, err

	c.mu.Lock()
	if c.flights[fkey] == fl {
		delete(c.flights, fkey)
	}
	if err == nil {
		c.putLocked(fp.Canon, epoch, epochAt, value)
	}
	c.mu.Unlock()
	close(fl.done)
	obs.PlanCacheMisses.Inc()
	return value, Miss, err
}

// Get returns the value cached under key for the given stats epoch,
// moving it to the front of the LRU; an entry from another epoch is
// dropped. Get counts no hit: the server looks a statement up before
// admission, and a query turned away there was not served from the
// cache. The caller counts the hit it serves with CountHit.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, epoch)
}

// Put caches value under key for the stats epoch it was computed at,
// unless epochAt has moved on since (the revalidation DoAt makes before
// it inserts).
func (c *Cache) Put(key string, epoch uint64, epochAt func() uint64, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, epoch, epochAt, value)
}

// CountHit counts one plan served from the cache, found in lookup time.
func CountHit(lookup time.Duration) {
	obs.PlanCacheHits.Inc()
	obs.PlanCacheHitLatency.ObserveDuration(lookup)
}

// lookupLocked returns the value cached under key if it was cached for
// epoch, moving it to the front. An entry from another epoch is dropped:
// the world changed since it was optimized. Callers hold c.mu.
func (c *Cache) lookupLocked(key string, epoch uint64) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if e := el.Value.(*entry); e.epoch == epoch {
		c.lru.MoveToFront(el)
		return e.value, true
	}
	c.lru.Remove(el)
	delete(c.entries, key)
	obs.PlanCacheInvalidations.Inc()
	obs.PlanCacheEntries.Dec()
	return nil, false
}

// putLocked inserts a value computed at epoch if the catalog is still
// at epoch. If it moved while the value was computed, the value may
// reflect a mix of old and new statistics: the caller has it, but it is
// kept out of the cache. Callers hold c.mu.
func (c *Cache) putLocked(key string, epoch uint64, epochAt func() uint64, value any) {
	if epochAt() != epoch {
		obs.PlanCacheStaleSkips.Inc()
		return
	}
	c.insertLocked(key, epoch, value)
}

// insertLocked adds or replaces an entry and enforces the LRU bound.
// Callers hold c.mu.
func (c *Cache) insertLocked(key string, epoch uint64, value any) {
	if el, ok := c.entries[key]; ok {
		// A racing lookup under another epoch populated first; newest wins.
		el.Value = &entry{key: key, epoch: epoch, value: value}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, epoch: epoch, value: value})
	obs.PlanCacheEntries.Inc()
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry).key)
		obs.PlanCacheEvictions.Inc()
		obs.PlanCacheEntries.Dec()
	}
}
