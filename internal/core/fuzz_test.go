package core

import (
	"math"
	"reflect"
	"testing"
)

// FuzzSolveSKPAgainstBrute decodes arbitrary bytes into a small SKP
// instance and cross-checks the branch-and-bound against exhaustive
// search, plus the Eq. 7 bound and plan feasibility. Run with
// `go test -fuzz=FuzzSolveSKPAgainstBrute ./internal/core`; the seed
// corpus below also runs under plain `go test`.
func FuzzSolveSKPAgainstBrute(f *testing.F) {
	f.Add([]byte{10, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 200, 199, 30, 1, 1, 30})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: viewing time 0..100. Then pairs (probWeight, retrieval).
		viewing := float64(data[0]) * 100 / 255
		rest := data[1:]
		n := len(rest) / 2
		if n == 0 || n > 10 {
			return
		}
		var weightSum float64
		weights := make([]float64, n)
		retr := make([]float64, n)
		for i := 0; i < n; i++ {
			weights[i] = float64(rest[2*i]) + 0.5
			weightSum += weights[i]
			retr[i] = math.Floor(float64(rest[2*i+1]))/255*29 + 1
		}
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			items[i] = Item{ID: i, Prob: weights[i] / weightSum, Retrieval: retr[i]}
		}
		p := Problem{Items: items, Viewing: viewing}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated invalid problem: %v", err)
		}

		plan, stats, err := SolveSKP(p)
		if err != nil {
			t.Fatalf("solver error: %v", err)
		}
		// One Solver shared across A, an unrelated B, then A again: the
		// second A must not see B's scratch, and both must equal the
		// fresh-solver result.
		s := NewSolver()
		planA, statsA, errA := s.Solve(p, Options{})
		idsA := planA.IDs()
		if _, _, err := s.Solve(unrelatedProblem(p), Options{NetworkLambda: 0.1}); err != nil {
			t.Fatalf("unrelated solve: %v", err)
		}
		planA2, statsA2, errA2 := s.Solve(p, Options{})
		if errA != nil || errA2 != nil || statsA != stats || statsA2 != stats ||
			!reflect.DeepEqual(idsA, plan.IDs()) || !reflect.DeepEqual(planA2.IDs(), idsA) {
			t.Fatalf("shared solver: A %v %+v, A again %v %+v; fresh %v %+v",
				idsA, statsA, planA2.IDs(), statsA2, plan.IDs(), stats)
		}
		got, err := Gain(p, plan)
		if err != nil {
			t.Fatalf("solver returned infeasible plan %v: %v", plan, err)
		}
		_, want, err := SolveSKPBruteCanonical(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("B&B gain %v != brute %v (problem %+v)", got, want, p)
		}
		bound, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		if got > bound+1e-9 {
			t.Fatalf("gain %v exceeds Eq.7 bound %v", got, bound)
		}
		if got < -1e-12 {
			t.Fatalf("optimal gain %v negative (empty plan should dominate)", got)
		}
	})
}

// FuzzArbitrate checks the Figure-6 arbitration invariants on arbitrary
// candidate/cache configurations.
func FuzzArbitrate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		free := int(data[0] % 4)
		sub := SubArbitration(data[1] % 3)
		rest := data[2:]
		half := len(rest) / 2
		candBytes, cacheBytes := rest[:half], rest[half:]

		var cand Plan
		for i := 0; i+1 < len(candBytes) && i < 12; i += 2 {
			cand.Items = append(cand.Items, Item{
				ID:        1000 + i,
				Prob:      float64(candBytes[i]) / 255,
				Retrieval: float64(candBytes[i+1])/255*29 + 1,
			})
		}
		var cache []CacheEntry
		for i := 0; i+1 < len(cacheBytes) && i < 12; i += 2 {
			cache = append(cache, CacheEntry{
				ID:        i,
				Prob:      float64(cacheBytes[i]) / 255 / 2,
				Retrieval: float64(cacheBytes[i+1])/255*29 + 1,
				Freq:      int64(cacheBytes[i] % 16),
			})
		}
		res := Arbitrate(cand, cache, free, sub)
		if len(res.Victims) != res.Accepted.Len() {
			t.Fatal("victims/accepted length mismatch")
		}
		inCache := map[int]bool{}
		for _, e := range cache {
			inCache[e.ID] = true
		}
		seen := map[int]bool{}
		freeUsed := 0
		for i, it := range res.Accepted.Items {
			v := res.Victims[i]
			if v == NoVictim {
				freeUsed++
				continue
			}
			if !inCache[v] || seen[v] {
				t.Fatalf("bad victim %d", v)
			}
			seen[v] = true
			_ = it
		}
		if freeUsed > free {
			t.Fatalf("used %d free slots of %d", freeUsed, free)
		}
	})
}

// unrelatedProblem derives a problem of a different size, order and
// viewing time from p, for interleaving with p on a shared Solver.
func unrelatedProblem(p Problem) Problem {
	n := len(p.Items) + 3
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: 100 + i, Prob: 1 / float64(n), Retrieval: float64(n - i)}
	}
	return Problem{Items: items, Viewing: p.Viewing/2 + 1, TotalProb: 1}
}
