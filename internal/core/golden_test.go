package core

import (
	"math"
	"testing"

	"prefetch/internal/golden"
	"prefetch/internal/rng"
)

// goldenOutcome is one solve's observable result: the planned IDs in
// prefetch order, the search effort and the error text. Continuations is
// set only by SolveSKPDepth2; Value only by UpperBound.
type goldenOutcome struct {
	IDs           []int
	Stats         SolverStats
	Continuations int64
	Value         float64
	Err           string
}

func outcome(plan Plan, stats SolverStats, err error) goldenOutcome {
	o := goldenOutcome{IDs: plan.IDs(), Stats: stats}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// goldenCorpus is a seeded set of problems with n = 0…100 candidates,
// crossing the 64-item threshold of the canonical sort. Every third
// problem carries probability ties so the retrieval and ID tie-breaks
// decide the order; IDs are scrambled so the ID order is not the input
// order; every odd-n problem sets TotalProb above Σ P_i, the
// partial-universe case.
func goldenCorpus() []Problem {
	r := rng.New(1501)
	out := []Problem{{Viewing: 7}}
	for n := 1; n <= 100; n++ {
		alpha := []float64{0.15, 0.5, 1, 3}[n%4]
		p := randProblem(r, n, alpha, 30, 60)
		for i := range p.Items {
			p.Items[i].ID = (i*37 + 11) % 1000
			if n%3 == 0 && i%5 == 2 {
				p.Items[i].Prob = p.Items[i-1].Prob
			}
		}
		if n%2 == 1 {
			p.TotalProb = p.SumProb() + 0.25
		}
		out = append(out, p)
	}
	return out
}

// goldenOptions is every combination of the solver knobs.
func goldenOptions() []Options {
	var out []Options
	for _, mode := range []DeltaMode{DeltaTheorem3, DeltaPaperTail} {
		for _, sc := range []float64{0, 0.75} {
			for _, lambda := range []float64{0, 0.3} {
				for _, noBound := range []bool{false, true} {
					out = append(out, Options{Mode: mode, StretchCost: sc, NetworkLambda: lambda, DisableBound: noBound})
				}
			}
		}
	}
	return out
}

// maxUnboundedItems caps the problems solved with DisableBound: without
// the Theorem-2 prune the search is exponential in n.
const maxUnboundedItems = 14

// maxDepth2Items caps the problems given to SolveSKPDepth2, whose bound
// adds the unreduced continuation value and so prunes late.
const maxDepth2Items = 24

// TestGoldenSKP pins every SKP entry point's plans, search stats and
// errors over the seeded corpus: a refactor of the solver that changes a
// single planned ID, node count or prune count fails here.
func TestGoldenSKP(t *testing.T) {
	corpus := goldenCorpus()
	opts := goldenOptions()
	got := map[string][]goldenOutcome{}
	add := func(name string, o goldenOutcome) { got[name] = append(got[name], o) }

	reused := NewSolver()
	for _, p := range corpus {
		for _, o := range opts {
			if o.DisableBound && len(p.Items) > maxUnboundedItems {
				continue
			}
			add("SolveSKPOpts", outcome(SolveSKPOpts(p, o)))
			add("Solver", outcome(reused.Solve(p, o)))
		}
	}

	r := rng.New(1502)
	for _, p := range corpus {
		add("SolveSKP", outcome(SolveSKP(p)))
		add("SolveSKPPaper", outcome(SolveSKPPaper(p)))
		for _, lambda := range []float64{0.1, 0.5, 2} {
			add("SolveSKPCostAware", outcome(SolveSKPCostAware(p, lambda)))
		}
		for _, c := range []float64{0.2, 1, 5} {
			add("SolveSKPStretchAware", outcome(SolveSKPStretchAware(p, c)))
		}
		succ := randSuccessors(r, p)
		add("SolveSKPLookahead", outcome(SolveSKPLookahead(p, succ)))
		if len(p.Items) <= maxDepth2Items {
			plan, stats, err := SolveSKPDepth2(p, succ)
			o := outcome(plan, stats.SolverStats, err)
			o.Continuations = stats.ContinuationSolves
			add("SolveSKPDepth2", o)
		}
		plan, err := SolveKP(p)
		add("SolveKP", outcome(plan, SolverStats{}, err))
		plan, err = SolveGreedyPrefetch(p)
		add("SolveGreedyPrefetch", outcome(plan, SolverStats{}, err))
		u, err := UpperBound(p)
		o := outcome(Plan{}, SolverStats{}, err)
		o.Value = u
		add("UpperBound", o)
	}

	want := map[string]string{
		"SolveSKPOpts":         "84b6f81a46d78c0835c0cbb5aa8f891e2b707b40655ea9fd69b226fce37d3be6",
		"Solver":               "84b6f81a46d78c0835c0cbb5aa8f891e2b707b40655ea9fd69b226fce37d3be6",
		"SolveSKP":             "dc47677392735398b982e56423707ea5a072380378e9f9cc47f066d6760d714c",
		"SolveSKPPaper":        "1755c5b3d132024ac6495ef421d9425d45b0002e4875efa5f108f438e1080787",
		"SolveSKPCostAware":    "b61c468edc956b5026802e78e8d65c4f75b6d555e30e4daa9f27484000c0d92e",
		"SolveSKPStretchAware": "26d2c8ff165c8b391c67b5d0575903165536d1a186a6aa88fc67649d0feee698",
		"SolveSKPLookahead":    "b4d07342b99d79d94601a7c9659fa98337171947ca3e59038a6ca801d0dd2877",
		"SolveSKPDepth2":       "f89a9513a4dd11b4648ca80b96c15708dc5a02cdad7d6ed35937de1ffde95f62",
		"SolveKP":              "960e5c8b14b04017ae0ba1044ba3090526caa40a1f51a82abf24598304276f81",
		"SolveGreedyPrefetch":  "c83bec294b961d01cea4faeddc716b74ac3956ebb27c783c22da8d6f89a74e7a",
		"UpperBound":           "0c75e9f9ce3a83050c724e96a24936285e05a6746d8316d1348b30382851be43",
	}
	for name, w := range want {
		if d := golden.Digest(got[name]); d != w {
			t.Errorf("%s: digest %s, want %s (%d outcomes)", name, d, w, len(got[name]))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d entry points recorded, %d pinned", len(got), len(want))
	}
}

// dupItems returns n valid items with IDs 0…n-2 and a last item that
// repeats ID dup.
func dupItems(n, dup int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Prob: 1 / float64(n), Retrieval: 1}
	}
	items[n-1].ID = dup
	return items
}

// TestGoldenInvalidProblems pins the error each malformed problem or
// option set produces, for the one-step solver and for a reused Solver.
func TestGoldenInvalidProblems(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		p    Problem
		opts Options
		want string
	}{
		{Problem{Viewing: -1}, Options{}, "core: bad problem: viewing time -1"},
		{Problem{Viewing: nan}, Options{}, "core: bad problem: viewing time NaN"},
		{Problem{TotalProb: -0.5}, Options{}, "core: bad problem: total probability -0.5"},
		{Problem{Items: []Item{{ID: 1, Prob: -0.1, Retrieval: 1}}, Viewing: 1}, Options{}, "core: bad problem: item 0 (id 1) probability -0.1"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.5, Retrieval: 0}}, Viewing: 1}, Options{}, "core: bad problem: item 0 (id 1) retrieval time 0 (must be > 0)"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.3, Retrieval: 1}, {ID: 1, Prob: 0.2, Retrieval: 2}}, Viewing: 1}, Options{}, "core: bad problem: duplicate item id 1"},
		{Problem{Items: []Item{{ID: 1, Prob: 0.9, Retrieval: 1}, {ID: 2, Prob: 0.9, Retrieval: 1}}, Viewing: 1, TotalProb: 1}, Options{}, "core: bad problem: Σ P_i = 1.8 exceeds TotalProb = 1"},
		{Problem{Items: dupItems(64, 5), Viewing: 1}, Options{}, "core: bad problem: duplicate item id 5"},
		{Problem{Items: dupItems(65, 5), Viewing: 1}, Options{}, "core: bad problem: duplicate item id 5"},
		{Problem{Viewing: 1}, Options{StretchCost: -1}, "core: bad problem: negative StretchCost or NetworkLambda"},
		{Problem{Viewing: 1}, Options{NetworkLambda: -0.1}, "core: bad problem: negative StretchCost or NetworkLambda"},
	}
	s := NewSolver()
	for i, c := range cases {
		_, _, err := SolveSKPOpts(c.p, c.opts)
		if err == nil || err.Error() != c.want {
			t.Errorf("case %d: SolveSKPOpts error %v, want %q", i, err, c.want)
		}
		_, _, err = s.Solve(c.p, c.opts)
		if err == nil || err.Error() != c.want {
			t.Errorf("case %d: Solver error %v, want %q", i, err, c.want)
		}
	}
}
