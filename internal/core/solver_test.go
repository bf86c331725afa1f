package core

import (
	"reflect"
	"sort"
	"testing"

	"prefetch/internal/rng"
)

// The solver's sorted scratch after each of many solves on one Solver is
// the library stable sort's permutation under canonicalLess, on both sides
// of the smallItems threshold where sortCanonical switches algorithms.
func TestSolverCanonicalSort(t *testing.T) {
	r := rng.New(302)
	s := NewSolver()
	for iter := 0; iter < 200; iter++ {
		p := randProblem(r, r.IntRange(1, 2*smallItems), 0.4, 10, 5)
		// Inject probability ties so the retrieval/ID tie-breaks exercise.
		for i := range p.Items {
			if i%3 == 0 {
				p.Items[i].Prob = 0.25
			}
		}
		if _, _, err := s.Solve(p, Options{}); err != nil {
			t.Fatal(err)
		}
		want := append([]Item(nil), p.Items...)
		sort.SliceStable(want, func(a, b int) bool { return canonicalLess(want[a], want[b]) })
		if !reflect.DeepEqual(s.sorted, want) {
			t.Fatalf("iter %d: canonical sort %v, want %v", iter, s.sorted, want)
		}
		if got := CanonicalOrder(p.Items); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: CanonicalOrder %v, want %v", iter, got, want)
		}
	}
}

// A steady-state Solve on a simulator-sized problem allocates nothing:
// validation, the canonical sort and the search all run on the solver's
// scratch, with the network price on so the λ>0 profit path is covered.
func TestSolverSteadyStateAllocs(t *testing.T) {
	r := rng.New(303)
	p := randProblem(r, 16, 0.5, 30, 50)
	opts := Options{NetworkLambda: 0.2}
	s := NewSolver()
	if _, _, err := s.Solve(p, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := s.Solve(p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %v times per call, want 0", allocs)
	}
}
