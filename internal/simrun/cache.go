package simrun

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Do call was served.
type Outcome int

const (
	// OutcomeMiss: this call executed the simulation itself.
	OutcomeMiss Outcome = iota
	// OutcomeHit: the result was already memoised.
	OutcomeHit
	// OutcomeCoalesced: an identical run was already in flight; this call
	// waited for it instead of re-simulating.
	OutcomeCoalesced
	// OutcomeReplayed: the result was produced by replaying a cached
	// timing trace instead of running the core timing simulation. Only
	// the two-level Exec reports this.
	OutcomeReplayed
	// OutcomeStore: the result was loaded from the persistent artifact
	// store (a prior process had computed it). No simulation and no
	// replay ran. Only an Exec with a Store attached reports this.
	OutcomeStore
)

// String names the outcome for logs and responses.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "cache"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeReplayed:
		return "replayed"
	case OutcomeStore:
		return "store"
	default:
		return "simulated"
	}
}

// Hashable is the key constraint for Cache: map-usable equality plus a
// 64-bit hash for shard selection.
type Hashable interface {
	comparable
	Hash() uint64
}

// shardCount is the number of independent cache shards; a power of two so
// shard selection is a mask. 16 comfortably exceeds the worker-pool sizes
// the serving layer runs with, keeping lock contention negligible.
const shardCount = 16

// Cache is a sharded, request-coalescing LRU memo from K to V. Concurrent
// Do calls with equal keys execute the underlying function exactly once
// (singleflight); completed values are retained up to the capacity with
// per-shard least-recently-used eviction. All methods are safe for
// concurrent use.
//
// The executor layers two of these: a Cache[Key, *core.Result] over final
// evaluations and a Cache[TimingKey, *core.Timing] over the expensive
// cycle-accurate timing passes that several evaluations share.
type Cache[K Hashable, V any] struct {
	shards    [shardCount]shard[K, V]
	shardMask uint64 // shard index mask: shardCount-1, or 0 for one shard
	capShard  int    // max resident entries per shard; 0 = unbounded

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

type shard[K Hashable, V any] struct {
	mu      sync.Mutex
	entries map[K]*list.Element // resident values, value = *entry[K, V]
	order   list.List           // front = most recently used
	flight  map[K]*flight[V]
}

// entry is one resident cache value.
type entry[K Hashable, V any] struct {
	key K
	val V
}

// flight is one in-progress run; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCache builds a cache holding up to capacity completed values
// (capacity <= 0 means unbounded — the batch experiments' configuration).
// The bound is enforced per shard, so the effective capacity is rounded up
// to a multiple of the shard count.
func NewCache[K Hashable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{shardMask: shardCount - 1}
	if capacity > 0 {
		c.capShard = (capacity + shardCount - 1) / shardCount
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*list.Element)
		c.shards[i].flight = make(map[K]*flight[V])
		c.shards[i].order.Init()
	}
	return c
}

// newSingleShardCache builds a cache with one shard, so its bound is
// exactly capacity entries and eviction is true LRU: for a small memo of
// large values, where NewCache's rounding up to one entry per shard would
// multiply the resident bytes by the shard count.
func newSingleShardCache[K Hashable, V any](capacity int) *Cache[K, V] {
	c := NewCache[K, V](0)
	c.shardMask = 0
	c.capShard = capacity
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	return &c.shards[k.Hash()&c.shardMask]
}

// Do returns the memoised value for key, executing fn at most once per
// key across all concurrent callers. A caller that finds an identical run
// in flight waits for it (or for its own context) instead of re-running.
// Errors are returned to every waiter of the failed attempt but are not
// cached: the next Do retries.
//
// The executing caller's context drives the run; if it is canceled, its
// waiters receive the cancellation error and a later Do re-executes.
func (c *Cache[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, Outcome, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, OutcomeHit, nil
	}
	if f, ok := s.flight[key]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			return f.val, OutcomeCoalesced, f.err
		case <-ctx.Done():
			var zero V
			return zero, OutcomeCoalesced, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flight[key] = f
	s.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = fn(ctx)

	s.mu.Lock()
	delete(s.flight, key)
	if f.err == nil {
		s.entries[key] = s.order.PushFront(&entry[K, V]{key: key, val: f.val})
		if c.capShard > 0 && s.order.Len() > c.capShard {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			delete(s.entries, oldest.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

// Get returns the memoised value for key without executing anything.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of resident values.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of a cache's activity counters.
type Stats struct {
	Hits      uint64 // served from the resident cache
	Misses    uint64 // executed the underlying function
	Coalesced uint64 // waited on an identical in-flight run
	Evictions uint64 // resident values dropped by the LRU bound
	Resident  int    // values currently cached
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Resident:  c.Len(),
	}
}
