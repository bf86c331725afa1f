// Package cache provides the cache substrate of the simulators. It has
// two containers:
//
//   - Cache serves internal/sim, the paper's single-client harness for
//     the prefetch-cache integration (paper §5): a fixed-capacity,
//     equal-item-size cache with access bookkeeping (frequency, recency,
//     insertion order) and a family of victim policies. The paper's
//     Pr-arbitration lives in internal/core; this package supplies the
//     container plus the classical baselines (LRU, LFU, FIFO,
//     delay-saving) used by extension experiments.
//   - LRUSet serves internal/multiclient, and through it internal/fleet:
//     every client's private cache and every server's shared cache. Those
//     caches only ever evict by LRU, so LRUSet keeps pages in flat slot
//     arrays with two flags per page and no per-item bookkeeping.
package cache

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadCache reports invalid cache construction or use.
var ErrBadCache = errors.New("cache: bad cache operation")

// Entry is the bookkeeping record for one cached item.
type Entry struct {
	ID         int
	Retrieval  float64 // r_i, retrieval time if it had to be refetched
	Freq       int64   // accesses observed while tracked
	LastAccess int64   // logical time of last access
	Inserted   int64   // logical time of insertion

	// Intrusive recency list: least recent at the head, most recent at the
	// tail. Maintained on Insert/RecordAccess/Evict so the LRU victim is an
	// O(1) head read instead of an Entries() copy-and-scan — the dominant
	// cost of every eviction at fleet scale. The copies handed out by
	// Entry/Entries have these cleared.
	prev, next *Entry
}

// Cache is a fixed-capacity set of equal-size items with usage bookkeeping.
// It is not safe for concurrent use; the simulators are single-goroutine
// per replica and merge results afterwards.
type Cache struct {
	capacity int
	items    map[int]*Entry
	clock    int64
	// freqAll tracks access counts for every item ever seen, cached or not:
	// the paper's freq_i (delay-saving profit, LFU sub-arbitration) is a
	// property of the item's access history, not of its cache residency.
	freqAll map[int]int64

	// head/tail bound the intrusive recency list (head = least recently
	// accessed). Tick is strictly monotonic, so LastAccess values are
	// unique and list order is exactly ascending LastAccess — the O(1)
	// victim below is bit-for-bit the Entries()-scan LRU victim.
	head, tail *Entry
	// free recycles evicted Entry structs (bounded by capacity) so steady
	// state insert/evict churn stops allocating.
	free []*Entry
}

// New creates a cache with the given capacity (number of items).
func New(capacity int) (*Cache, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrBadCache, capacity)
	}
	return &Cache{
		capacity: capacity,
		items:    make(map[int]*Entry, capacity),
		freqAll:  make(map[int]int64),
	}, nil
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached items.
func (c *Cache) Len() int { return len(c.items) }

// Free returns the number of free slots.
func (c *Cache) Free() int { return c.capacity - len(c.items) }

// Contains reports whether the item is cached.
func (c *Cache) Contains(id int) bool {
	_, ok := c.items[id]
	return ok
}

// Tick advances the logical clock and returns the new time.
func (c *Cache) Tick() int64 {
	c.clock++
	return c.clock
}

// RecordAccess notes an access to an item (hit or miss): it bumps the
// global frequency and, if cached, the entry's bookkeeping.
func (c *Cache) RecordAccess(id int) {
	c.Tick()
	c.freqAll[id]++
	if e, ok := c.items[id]; ok {
		e.Freq++
		e.LastAccess = c.clock
		c.moveToTail(e)
	}
}

// unlink removes e from the recency list.
func (c *Cache) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushTail appends e as the most recently accessed entry.
func (c *Cache) pushTail(e *Entry) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

// moveToTail re-files e as most recently accessed.
func (c *Cache) moveToTail(e *Entry) {
	if c.tail == e {
		return
	}
	c.unlink(e)
	c.pushTail(e)
}

// Freq returns the total observed access count of an item (cached or not).
func (c *Cache) Freq(id int) int64 { return c.freqAll[id] }

// Insert adds an item; the cache must have a free slot. The entry inherits
// the item's global frequency so that a re-inserted item keeps its history
// (WATCHMAN-style delay-saving needs this).
func (c *Cache) Insert(id int, retrieval float64) error {
	if c.Free() <= 0 {
		return fmt.Errorf("%w: insert %d into full cache (capacity %d)", ErrBadCache, id, c.capacity)
	}
	if _, ok := c.items[id]; ok {
		return fmt.Errorf("%w: item %d already cached", ErrBadCache, id)
	}
	c.Tick()
	var e *Entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = new(Entry)
	}
	*e = Entry{
		ID:         id,
		Retrieval:  retrieval,
		Freq:       c.freqAll[id],
		LastAccess: c.clock,
		Inserted:   c.clock,
	}
	c.items[id] = e
	c.pushTail(e)
	return nil
}

// Evict removes an item from the cache.
func (c *Cache) Evict(id int) error {
	e, ok := c.items[id]
	if !ok {
		return fmt.Errorf("%w: evict non-cached item %d", ErrBadCache, id)
	}
	delete(c.items, id)
	c.unlink(e)
	if len(c.free) < c.capacity {
		c.free = append(c.free, e)
	}
	return nil
}

// Entry returns a copy of the entry for id.
func (c *Cache) Entry(id int) (Entry, bool) {
	e, ok := c.items[id]
	if !ok {
		return Entry{}, false
	}
	out := *e
	out.prev, out.next = nil, nil
	return out, true
}

// Entries returns copies of all entries, sorted by ID for determinism.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, len(c.items))
	for _, e := range c.items {
		cp := *e
		cp.prev, cp.next = nil, nil
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns the cached item IDs, sorted ascending.
func (c *Cache) IDs() []int {
	out := make([]int, 0, len(c.items))
	for id := range c.items {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Flush empties the cache (the "prefetch only" simulation flushes after
// every request). Global frequencies are retained.
func (c *Cache) Flush() {
	for e := c.head; e != nil; {
		next := e.next
		e.prev, e.next = nil, nil
		if len(c.free) < c.capacity {
			c.free = append(c.free, e)
		}
		e = next
	}
	c.head, c.tail = nil, nil
	c.items = make(map[int]*Entry, c.capacity)
}

// Victim chooses an eviction victim using the policy; false if empty.
// The LRU policy is answered in O(1) from the recency list head: Tick is
// strictly monotonic so LastAccess values are unique, which makes the
// head exactly the entry the Entries() scan would pick (the ID tie-break
// can never fire).
func (c *Cache) Victim(p Policy) (int, bool) {
	if len(c.items) == 0 {
		return 0, false
	}
	if _, ok := p.(LRU); ok {
		return c.head.ID, true
	}
	return p.Victim(c.Entries()), true
}

// Policy selects an eviction victim among cache entries. Implementations
// must be deterministic given the entries (break ties by lowest ID).
type Policy interface {
	Name() string
	// Victim returns the ID to evict; entries is non-empty.
	Victim(entries []Entry) int
}

// pickMin returns the entry minimising key, ties by lowest ID (entries are
// pre-sorted by ID, so the first minimum wins).
func pickMin(entries []Entry, key func(Entry) float64) int {
	best := 0
	bestKey := key(entries[0])
	for i := 1; i < len(entries); i++ {
		if k := key(entries[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	return entries[best].ID
}

// LRU evicts the least recently used entry.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victim implements Policy.
func (LRU) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.LastAccess) })
}

// LFU evicts the least frequently used entry.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// Victim implements Policy.
func (LFU) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Freq) })
}

// FIFO evicts the oldest inserted entry.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Victim implements Policy.
func (FIFO) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Inserted) })
}

// DelaySaving evicts the entry with the lowest delay-saving profit
// freq_i·r_i (the simplified WATCHMAN metric of the paper's §5.2).
type DelaySaving struct{}

// Name implements Policy.
func (DelaySaving) Name() string { return "delay-saving" }

// Victim implements Policy.
func (DelaySaving) Victim(entries []Entry) int {
	return pickMin(entries, func(e Entry) float64 { return float64(e.Freq) * e.Retrieval })
}
