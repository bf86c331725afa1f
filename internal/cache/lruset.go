package cache

// lruScanMax is the largest capacity whose lookups scan the slot array;
// larger sets keep a page→slot index. BenchmarkLRUSet (a Zipf(1.1)
// stream over 1000 pages, one Find plus a Touch or an Insert per
// access; medians of 8 runs on a shared 2-vCPU Xeon, go1.24.0) measured
// both lookups at four capacities:
//
//	capacity  scan      index
//	20        26.1 ns   32.0 ns
//	32        29.6 ns   31.7 ns
//	48        37.2 ns   25.8 ns
//	64        40.1 ns   26.5 ns
//
// The scan grows with the capacity and the index does not; they cross
// between 32 and 48 slots. So the default 20-slot client cache scans and
// the 64-slot server caches use the index.
const lruScanMax = 32

// SlotFlag is a bit set of per-slot markers an LRUSet stores alongside
// each page for its caller.
type SlotFlag uint8

// The markers the multiclient simulator keeps on cached pages.
const (
	// Speculative marks a page whose latest store came from a
	// speculative transfer that no demand access has used yet.
	Speculative SlotFlag = 1 << iota
	// Warm marks a page the server-side warmer placed.
	Warm
)

// LRUSet is a fixed-capacity set of pages kept in least-recently-used
// order: the simulators' client and server caches, which never need a
// policy other than LRU nor any per-item bookkeeping beyond two flags.
//
// Pages live in a flat slot array with an intrusive doubly-linked
// recency list over the slots (head = least recently used). Slots fill
// in order and an insert into a full set reuses the victim's slot, so
// the occupied slots are always [0, Len()). A lookup scans them up to
// lruScanMax slots and reads a page→slot index above that. Slot numbers
// returned by Find stay valid until the next Insert.
//
// The recency order is exactly cache.Cache's under cache.LRU: both move
// an accessed page to the most recent end and evict the least recent,
// and Cache's access ticks are unique, so the two never disagree on a
// victim. The zero value is an empty set of capacity 0, and Init sizes
// a set in place, so callers embed it by value. It is not safe for
// concurrent use.
type LRUSet struct {
	ids        []int32 // page in each slot
	prev, next []int32 // recency links between slots, -1 at the ends
	flags      []SlotFlag
	n          int32   // occupied slots
	head, tail int32   // least and most recently used slot
	index      []int32 // page → slot+1 by linear probing, 0 = empty; nil when lookups scan
	shift      uint32  // 32 − log2(len(index))
}

// Init empties s and sizes it for up to capacity pages (at least 0).
// Page IDs must fit in an int32.
func (s *LRUSet) Init(capacity int) {
	buf := make([]int32, 3*capacity)
	*s = LRUSet{
		ids:   buf[:capacity:capacity],
		prev:  buf[capacity : 2*capacity : 2*capacity],
		next:  buf[2*capacity:],
		flags: make([]SlotFlag, capacity),
		head:  -1,
		tail:  -1,
	}
	if capacity > lruScanMax {
		// At most a quarter full, so probe runs stay short.
		bits := uint32(1)
		for 1<<bits < 4*capacity {
			bits++
		}
		s.index = make([]int32, 1<<bits)
		s.shift = 32 - bits
	}
}

// Cap returns the capacity.
func (s *LRUSet) Cap() int { return len(s.ids) }

// Len returns the number of cached pages.
func (s *LRUSet) Len() int { return int(s.n) }

// Find returns the slot holding page, or -1 if page is not cached.
func (s *LRUSet) Find(page int) int {
	p := int32(page)
	if s.index != nil {
		mask := uint32(len(s.index) - 1)
		for h := s.home(p); ; h = (h + 1) & mask {
			e := s.index[h]
			if e == 0 {
				return -1
			}
			if s.ids[e-1] == p {
				return int(e - 1)
			}
		}
	}
	for i, id := range s.ids[:s.n] {
		if id == p {
			return i
		}
	}
	return -1
}

// Contains reports whether page is cached.
func (s *LRUSet) Contains(page int) bool { return s.Find(page) >= 0 }

// Touch records an access to the page in slot, making it the most
// recently used.
func (s *LRUSet) Touch(slot int) {
	i := int32(slot)
	if i == s.tail {
		return
	}
	s.unlink(i)
	s.pushTail(i)
}

// Victim returns the least recently used page; false if the set is
// empty.
func (s *LRUSet) Victim() (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	return int(s.ids[s.head]), true
}

// Insert caches page, which must not be cached yet, as the most recently
// used page with flags f. When the set is full it first evicts the least
// recently used page and reports it. Inserting into a set of capacity 0
// panics.
func (s *LRUSet) Insert(page int, f SlotFlag) (victim int, evicted bool) {
	slot := s.n
	if int(slot) < len(s.ids) {
		s.n++
	} else {
		slot = s.head
		victim, evicted = int(s.ids[slot]), true
		s.unlink(slot)
		if s.index != nil {
			s.unindex(slot)
		}
	}
	s.ids[slot] = int32(page)
	s.flags[slot] = f
	s.pushTail(slot)
	if s.index != nil {
		mask := uint32(len(s.index) - 1)
		h := s.home(int32(page))
		for s.index[h] != 0 {
			h = (h + 1) & mask
		}
		s.index[h] = slot + 1
	}
	return victim, evicted
}

// Flags returns the markers of the page in slot.
func (s *LRUSet) Flags(slot int) SlotFlag { return s.flags[slot] }

// SetFlags replaces the markers of the page in slot.
func (s *LRUSet) SetFlags(slot int, f SlotFlag) { s.flags[slot] = f }

// home is page p's first probe position in the index (Fibonacci
// hashing: the top bits of p times 2³²/φ).
func (s *LRUSet) home(p int32) uint32 { return uint32(p) * 0x9e3779b9 >> s.shift }

// unindex removes slot's index entry. Later entries of its probe run
// shift back into the hole, so no lookup stops early at an empty
// position.
func (s *LRUSet) unindex(slot int32) {
	mask := uint32(len(s.index) - 1)
	i := s.home(s.ids[slot])
	for s.index[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j], where a lookup would never pass i.
		if k := s.home(s.ids[s.index[j]-1]); (j-k)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
}

// unlink removes slot i from the recency list.
func (s *LRUSet) unlink(i int32) {
	p, n := s.prev[i], s.next[i]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

// pushTail appends slot i as the most recently used.
func (s *LRUSet) pushTail(i int32) {
	s.prev[i], s.next[i] = s.tail, -1
	if s.tail >= 0 {
		s.next[s.tail] = i
	} else {
		s.head = i
	}
	s.tail = i
}
