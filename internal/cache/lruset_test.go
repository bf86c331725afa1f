package cache

import (
	"fmt"
	"math"
	"testing"

	"prefetch/internal/rng"
)

// diffLRUSet replays an operation stream against an LRUSet and against
// a Cache under the LRU policy, and fails on the first Contains answer,
// victim or length on which they disagree. Each byte is one operation on
// page b&0x7f: an access (a lookup plus, on a hit, a recency update) if
// its top bit is clear, otherwise an insert of the page if it is absent,
// which evicts the least recently used page when the cache is full.
func diffLRUSet(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	var set LRUSet
	set.Init(capacity)
	ref, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range ops {
		page := int(b & 0x7f)
		slot := set.Find(page)
		if got, want := slot >= 0, ref.Contains(page); got != want {
			t.Fatalf("op %d: Contains(%d) = %v, reference %v", i, page, got, want)
		}
		switch {
		case b&0x80 == 0:
			if slot >= 0 {
				set.Touch(slot)
			}
			ref.RecordAccess(page)
		case slot < 0:
			var refVictim int
			refEvicted := false
			if ref.Free() == 0 {
				refVictim, refEvicted = ref.Victim(LRU{})
				if err := ref.Evict(refVictim); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Insert(page, 1); err != nil {
				t.Fatal(err)
			}
			victim, evicted := set.Insert(page, 0)
			if evicted != refEvicted || victim != refVictim {
				t.Fatalf("op %d: insert %d evicted (%d, %v), reference (%d, %v)", i, page, victim, evicted, refVictim, refEvicted)
			}
		}
		if set.Len() != ref.Len() {
			t.Fatalf("op %d: Len %d, reference %d", i, set.Len(), ref.Len())
		}
		v, ok := set.Victim()
		rv, rok := ref.Victim(LRU{})
		if v != rv || ok != rok {
			t.Fatalf("op %d: Victim (%d, %v), reference (%d, %v)", i, v, ok, rv, rok)
		}
	}
}

// TestLRUSetMatchesCache drives random access and insert streams through
// both caches at the capacities around the scan/index threshold.
func TestLRUSetMatchesCache(t *testing.T) {
	for _, capacity := range []int{1, lruScanMax, lruScanMax + 1, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", capacity, seed), func(t *testing.T) {
				r := rng.New(seed)
				// Pages from a range twice the capacity, so the stream
				// mixes hits, misses and evictions.
				pages := min(2*capacity+1, 0x80)
				ops := make([]byte, 4000)
				for i := range ops {
					ops[i] = byte(r.IntN(pages))
					if r.IntN(2) == 0 {
						ops[i] |= 0x80
					}
				}
				diffLRUSet(t, capacity, ops)
			})
		}
	}
}

// FuzzLRUSetAgainstCache checks arbitrary operation streams (see
// diffLRUSet) at capacities 1…64, which cover both lookups.
func FuzzLRUSetAgainstCache(f *testing.F) {
	f.Add(uint8(0), []byte{0x81, 0x82, 0x01, 0x83, 0x02})
	f.Add(uint8(lruScanMax-1), []byte{0x85, 0x05, 0x86, 0x87, 0x05, 0x88})
	f.Add(uint8(lruScanMax), []byte{0x81, 0x82, 0x83, 0x01, 0x84, 0x02})
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		diffLRUSet(t, 1+int(c)%64, ops)
	})
}

// TestLRUSetFlags: flags stay with their page across recency updates and
// a reused slot starts with the flags of its new page.
func TestLRUSetFlags(t *testing.T) {
	var s LRUSet
	s.Init(2)
	s.Insert(1, Speculative)
	s.Insert(2, Warm)
	s.Touch(s.Find(1)) // page 2 is now the least recently used
	if f := s.Flags(s.Find(1)); f != Speculative {
		t.Errorf("page 1 flags %v, want Speculative", f)
	}
	if victim, evicted := s.Insert(3, 0); !evicted || victim != 2 {
		t.Fatalf("insert evicted (%d, %v), want (2, true)", victim, evicted)
	}
	if f := s.Flags(s.Find(3)); f != 0 {
		t.Errorf("page 3 flags %v in the reused slot, want none", f)
	}
	slot := s.Find(1)
	s.SetFlags(slot, s.Flags(slot)&^Speculative)
	if f := s.Flags(s.Find(1)); f != 0 {
		t.Errorf("page 1 flags %v after clearing, want none", f)
	}
}

// TestLRUSetZeroValue: the zero LRUSet is an empty set of capacity 0.
func TestLRUSetZeroValue(t *testing.T) {
	var s LRUSet
	if s.Cap() != 0 || s.Len() != 0 || s.Contains(0) {
		t.Error("zero LRUSet is not empty")
	}
	if _, ok := s.Victim(); ok {
		t.Error("zero LRUSet reports a victim")
	}
}

// zipfPages draws n pages from a Zipf(1.1) popularity over 1000 pages,
// the shape of the simulator's page streams.
func zipfPages(n int) []int {
	const pages = 1000
	cum := make([]float64, pages)
	total := 0.0
	for k := range cum {
		total += 1 / math.Pow(float64(k+1), 1.1)
		cum[k] = total
	}
	r := rng.New(1)
	out := make([]int, n)
	for i := range out {
		u := r.Float64() * total
		lo, hi := 0, pages-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

// BenchmarkLRUSet is the cache layer as the simulator drives it: one
// lookup per access over a Zipf page stream, then a recency update on a
// hit or an insert (evicting the least recently used page) on a miss.
// It reports ns per access at the client (20) and server (64) cache
// sizes.
func BenchmarkLRUSet(b *testing.B) {
	stream := zipfPages(1 << 16)
	for _, capacity := range []int{20, 64} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			var s LRUSet
			s.Init(capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := stream[i&(len(stream)-1)]
				if slot := s.Find(page); slot >= 0 {
					s.Touch(slot)
				} else {
					s.Insert(page, 0)
				}
			}
		})
	}
}
