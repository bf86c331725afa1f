package core

import (
	"errors"
	"math"
	"testing"

	"prefetch/internal/rng"
)

// bruteTail maximises the Figure-3 tail objective exhaustively over the
// canonical search space, for validating SolveSKPPaper.
func bruteTail(t *testing.T, p Problem) float64 {
	t.Helper()
	sorted := CanonicalOrder(p.Items)
	n := len(sorted)
	best := 0.0
	for mask := 1; mask < 1<<uint(n); mask++ {
		var items []Item
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, sorted[i])
			}
		}
		plan := Plan{Items: items}
		if plan.validAgainst(p) != nil {
			continue
		}
		g, err := GainTail(p, plan)
		if err != nil {
			t.Fatal(err)
		}
		if g > best {
			best = g
		}
	}
	return best
}

func TestSolveSKPEmptyAndTrivial(t *testing.T) {
	plan, _, err := SolveSKP(Problem{Viewing: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Fatal("empty problem must yield empty plan")
	}
	// Single item that fits: prefetch it.
	p := Problem{Items: []Item{{ID: 0, Prob: 1, Retrieval: 5}}, Viewing: 10}
	plan, _, err = SolveSKP(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Items[0].ID != 0 {
		t.Fatalf("plan = %v, want the single item", plan)
	}
	// Zero viewing time: nothing can pay off (coefficient >= P_z).
	p.Viewing = 0
	plan, _, err = SolveSKP(p)
	if err != nil {
		t.Fatal(err)
	}
	// g of prefetching the only item: 1*5 − 1*5 = 0; empty plan is optimal.
	if g, _ := Gain(p, plan); g != 0 {
		t.Fatalf("v=0 gain = %v, want 0", g)
	}
}

func TestSolveSKPHandExample(t *testing.T) {
	// The hand-worked instance from TestGainHandComputed: the optimum is
	// {0,1} with g = 2.7, beating {0} (2.4), {0,2} (2.6) and everything else.
	p := Problem{Items: []Item{
		{ID: 0, Prob: 0.6, Retrieval: 4},
		{ID: 1, Prob: 0.3, Retrieval: 5},
		{ID: 2, Prob: 0.1, Retrieval: 2},
	}, Viewing: 6}
	plan, _, err := SolveSKP(p)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := Gain(p, plan)
	if math.Abs(g-2.7) > 1e-12 {
		t.Fatalf("optimum gain = %v (plan %v), want 2.7", g, plan)
	}
	ids := plan.IDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("plan = %v, want [0 1]", ids)
	}
}

// The central correctness property: branch-and-bound equals exhaustive
// search over the canonical space, across many random instances.
func TestSolveSKPMatchesBruteForce(t *testing.T) {
	r := rng.New(31)
	for iter := 0; iter < 400; iter++ {
		alpha := []float64{0.15, 0.5, 1, 3}[iter%4]
		p := randProblem(r, r.IntRange(1, 11), alpha, 30, 60)
		plan, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Gain(p, plan)
		if err != nil {
			t.Fatalf("iter %d: solver returned invalid plan %v: %v", iter, plan, err)
		}
		_, want, err := SolveSKPBruteCanonical(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: B&B gain %v != brute gain %v\nproblem: %+v\nplan: %v",
				iter, got, want, p, plan)
		}
	}
}

// SolveSKPPaper must equal the exhaustive optimum of the *tail* objective.
func TestSolveSKPPaperMatchesTailBrute(t *testing.T) {
	r := rng.New(32)
	for iter := 0; iter < 250; iter++ {
		p := randProblem(r, r.IntRange(1, 10), 0.4, 30, 40)
		plan, _, err := SolveSKPPaper(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GainTail(p, plan)
		if err != nil {
			t.Fatalf("iter %d: paper solver returned invalid plan: %v", iter, err)
		}
		want := bruteTail(t, p)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: paper-mode gain %v != tail brute %v\nproblem: %+v\nplan %v",
				iter, got, want, p, plan)
		}
	}
}

// The literal pseudocode can pick plans whose true Eq. 3 gain is negative;
// the corrected solver never does. Verify both statements.
func TestPaperModeCanBeSuboptimal(t *testing.T) {
	r := rng.New(33)
	sawNegative := false
	for iter := 0; iter < 3000 && !sawNegative; iter++ {
		p := randProblem(r, r.IntRange(2, 10), 0.3, 30, 8) // small v favours stretch
		paperPlan, _, err := SolveSKPPaper(p)
		if err != nil {
			t.Fatal(err)
		}
		gPaper, err := Gain(p, paperPlan)
		if err != nil {
			t.Fatal(err)
		}
		correctPlan, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		gCorrect, err := Gain(p, correctPlan)
		if err != nil {
			t.Fatal(err)
		}
		if gCorrect < -1e-9 {
			t.Fatalf("iter %d: corrected solver produced negative gain %v", iter, gCorrect)
		}
		if gPaper < gCorrect-1e-9 && gPaper < -1e-9 {
			sawNegative = true
		}
		if gPaper > gCorrect+1e-9 {
			t.Fatalf("iter %d: paper mode gain %v beats the exact optimum %v", iter, gPaper, gCorrect)
		}
	}
	if !sawNegative {
		t.Fatal("expected at least one instance where the literal Fig. 3 δ picks a plan with negative true gain")
	}
}

// Theorem 1's exchange argument silently assumes the swapped plan stays
// feasible. This counterexample shows the canonical restriction can exclude
// the true optimum of problem (4): the best plan puts the HIGH-probability
// item last (as the stretching item) because it is too large for K.
func TestTheorem1FeasibilityGap(t *testing.T) {
	p := Problem{Items: []Item{
		{ID: 0, Prob: 0.6, Retrieval: 20},
		{ID: 1, Prob: 0.3, Retrieval: 3},
		{ID: 2, Prob: 0.1, Retrieval: 2},
	}, Viewing: 6}

	_, canonGain, err := SolveSKPBruteCanonical(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(canonGain-1.1) > 1e-9 {
		t.Fatalf("canonical optimum = %v, want 1.1 ({1,2} within capacity)", canonGain)
	}

	exPlan, exGain, err := SolveSKPExhaustive(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exGain-1.7) > 1e-9 {
		t.Fatalf("exhaustive optimum = %v, want 1.7 ({1,2}·⟨0⟩)", exGain)
	}
	z, _ := exPlan.Last()
	if z.ID != 0 {
		t.Fatalf("exhaustive optimum should end with item 0, got %v", exPlan)
	}
	// Verify the winning plan against Eq. 3 directly.
	g, err := Gain(p, exPlan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-1.7) > 1e-9 {
		t.Fatalf("Eq. 3 evaluation of exhaustive plan = %v, want 1.7", g)
	}
}

// Exhaustive (free choice of z) always dominates the canonical restriction.
func TestExhaustiveDominatesCanonical(t *testing.T) {
	r := rng.New(34)
	for iter := 0; iter < 150; iter++ {
		p := randProblem(r, r.IntRange(1, 9), 0.5, 30, 30)
		_, canonGain, err := SolveSKPBruteCanonical(p)
		if err != nil {
			t.Fatal(err)
		}
		_, exGain, err := SolveSKPExhaustive(p)
		if err != nil {
			t.Fatal(err)
		}
		if exGain < canonGain-1e-9 {
			t.Fatalf("iter %d: exhaustive %v below canonical %v", iter, exGain, canonGain)
		}
	}
}

// Disabling the Theorem-2 bound must not change the optimum, only the node
// count.
func TestBoundAblation(t *testing.T) {
	r := rng.New(35)
	var withBound, withoutBound int64
	for iter := 0; iter < 60; iter++ {
		p := randProblem(r, 12, 0.7, 30, 60)
		planA, statsA, err := SolveSKPOpts(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		planB, statsB, err := SolveSKPOpts(p, Options{DisableBound: true})
		if err != nil {
			t.Fatal(err)
		}
		ga, _ := Gain(p, planA)
		gb, _ := Gain(p, planB)
		if math.Abs(ga-gb) > 1e-9 {
			t.Fatalf("iter %d: bound changed optimum %v -> %v", iter, gb, ga)
		}
		withBound += statsA.Nodes
		withoutBound += statsB.Nodes
	}
	if withBound >= withoutBound {
		t.Fatalf("bound did not reduce search: %d nodes with vs %d without", withBound, withoutBound)
	}
}

// As the stretch price grows, the stretch-aware solution converges to the
// KP solution (which never stretches); at zero it is plain SKP.
func TestStretchAwareLimits(t *testing.T) {
	r := rng.New(36)
	for iter := 0; iter < 100; iter++ {
		p := randProblem(r, r.IntRange(1, 9), 0.5, 30, 40)
		base, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		zero, _, err := SolveSKPStretchAware(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		g0, _ := Gain(p, base)
		gz, _ := Gain(p, zero)
		if math.Abs(g0-gz) > 1e-9 {
			t.Fatalf("iter %d: stretchCost=0 differs from SolveSKP: %v vs %v", iter, gz, g0)
		}
		huge, _, err := SolveSKPStretchAware(p, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if huge.Stretch(p.Viewing) > 0 {
			t.Fatalf("iter %d: infinite stretch price still stretched: %v", iter, huge)
		}
		kp, err := SolveKP(p)
		if err != nil {
			t.Fatal(err)
		}
		var hugeVal, kpVal float64
		for _, it := range huge.Items {
			hugeVal += it.Prob * it.Retrieval
		}
		for _, it := range kp.Items {
			kpVal += it.Prob * it.Retrieval
		}
		if math.Abs(hugeVal-kpVal) > 1e-9 {
			t.Fatalf("iter %d: stretch-averse value %v != KP value %v", iter, hugeVal, kpVal)
		}
	}
}

// The KP baseline never stretches and its in-capacity value is optimal.
func TestSolveKPProperties(t *testing.T) {
	r := rng.New(37)
	for iter := 0; iter < 150; iter++ {
		p := randProblem(r, r.IntRange(1, 10), 1, 30, 50)
		kp, err := SolveKP(p)
		if err != nil {
			t.Fatal(err)
		}
		if kp.Stretch(p.Viewing) > 0 {
			t.Fatalf("iter %d: KP plan stretches", iter)
		}
		gKP, err := Gain(p, kp)
		if err != nil {
			t.Fatal(err)
		}
		// SKP dominates KP on expected improvement.
		skp, _, err := SolveSKP(p)
		if err != nil {
			t.Fatal(err)
		}
		gSKP, _ := Gain(p, skp)
		if gKP > gSKP+1e-9 {
			t.Fatalf("iter %d: KP gain %v beats SKP gain %v", iter, gKP, gSKP)
		}
	}
}

// Greedy prefetch is feasible and never beats KP.
func TestGreedyPrefetch(t *testing.T) {
	r := rng.New(38)
	for iter := 0; iter < 100; iter++ {
		p := randProblem(r, r.IntRange(1, 10), 1, 30, 50)
		gr, err := SolveGreedyPrefetch(p)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Stretch(p.Viewing) > 0 {
			t.Fatalf("iter %d: greedy plan stretches", iter)
		}
		kp, err := SolveKP(p)
		if err != nil {
			t.Fatal(err)
		}
		gg, _ := Gain(p, gr)
		gk, _ := Gain(p, kp)
		if gg > gk+1e-9 {
			t.Fatalf("iter %d: greedy %v beats KP %v", iter, gg, gk)
		}
	}
}

// Cost-aware: λ=0 equals SKP; waste is weakly decreasing in λ; the plan
// under huge λ is empty unless an item is near-certain.
func TestCostAwareMonotonicity(t *testing.T) {
	r := rng.New(39)
	lambdas := []float64{0, 0.05, 0.15, 0.4, 1, 3, 10}
	for iter := 0; iter < 80; iter++ {
		p := randProblem(r, r.IntRange(1, 9), 0.4, 30, 50)
		prevWaste := math.Inf(1)
		for _, lambda := range lambdas {
			plan, _, err := SolveSKPCostAware(p, lambda)
			if err != nil {
				t.Fatal(err)
			}
			w := Waste(plan)
			if w > prevWaste+1e-9 {
				t.Fatalf("iter %d: waste increased with λ: %v -> %v at λ=%v", iter, prevWaste, w, lambda)
			}
			prevWaste = w
			if lambda == 0 {
				base, _, err := SolveSKP(p)
				if err != nil {
					t.Fatal(err)
				}
				gb, _ := Gain(p, base)
				gp, _ := Gain(p, plan)
				if math.Abs(gb-gp) > 1e-9 {
					t.Fatalf("iter %d: λ=0 gain %v != SKP gain %v", iter, gp, gb)
				}
			}
		}
		// With λ = 10, only items with P > 10/11 can be profitable.
		plan, _, err := SolveSKPCostAware(p, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range plan.Items {
			if it.Prob <= ProbThreshold(10) {
				t.Fatalf("iter %d: λ=10 plan kept item with P=%v <= threshold %v", iter, it.Prob, ProbThreshold(10))
			}
		}
	}
}

func TestWaste(t *testing.T) {
	plan := Plan{Items: []Item{
		{ID: 0, Prob: 0.75, Retrieval: 4},
		{ID: 1, Prob: 0.5, Retrieval: 10},
	}}
	want := 0.25*4 + 0.5*10
	if got := Waste(plan); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Waste = %v, want %v", got, want)
	}
	if Waste(Plan{}) != 0 {
		t.Fatal("Waste(empty) != 0")
	}
}

func TestMarginalDensity(t *testing.T) {
	p := Problem{Items: []Item{
		{ID: 0, Prob: 0.5, Retrieval: 4},
		{ID: 1, Prob: 0.3, Retrieval: 4},
		{ID: 2, Prob: 0.2, Retrieval: 4},
	}, Viewing: 6}
	// Dantzig fill: item 0 whole, item 1 marginal.
	if got := MarginalDensity(p); got != 0.3 {
		t.Fatalf("MarginalDensity = %v, want 0.3", got)
	}
	p.Viewing = 100
	if got := MarginalDensity(p); got != 0 {
		t.Fatalf("all-fit MarginalDensity = %v, want 0", got)
	}
}

func TestExpectedStretchCost(t *testing.T) {
	succ := []WeightedProblem{
		{Weight: 0.5, Problem: Problem{Items: []Item{{ID: 0, Prob: 0.8, Retrieval: 10}}, Viewing: 5}},
		{Weight: 0.5, Problem: Problem{Items: []Item{{ID: 0, Prob: 0.6, Retrieval: 2}}, Viewing: 5}},
		{Weight: 0, Problem: Problem{}},
	}
	// First successor: marginal item P=0.8; second: everything fits, 0.
	want := 0.5 * 0.8
	if got := ExpectedStretchCost(succ); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectedStretchCost = %v, want %v", got, want)
	}
}

func TestSolveSKPOptsRejectsNegativeKnobs(t *testing.T) {
	p := Problem{Items: []Item{{ID: 0, Prob: 1, Retrieval: 1}}, Viewing: 1}
	if _, _, err := SolveSKPOpts(p, Options{StretchCost: -1}); err == nil {
		t.Fatal("negative StretchCost accepted")
	}
	if _, _, err := SolveSKPOpts(p, Options{NetworkLambda: -1}); err == nil {
		t.Fatal("negative NetworkLambda accepted")
	}
	// Non-finite knobs are rejected too: unchecked, on the skpsolve sample
	// problem (which plans [1 2]) a NaN λ plans nothing and a NaN or +Inf
	// stretch price plans the KP-like [1 3].
	sample := Problem{Items: []Item{
		{ID: 1, Prob: 0.6, Retrieval: 4},
		{ID: 2, Prob: 0.3, Retrieval: 5},
		{ID: 3, Prob: 0.1, Retrieval: 2},
	}, Viewing: 6}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, opts := range []Options{{StretchCost: x}, {NetworkLambda: x}} {
			plan, _, err := SolveSKPOpts(sample, opts)
			if !errors.Is(err, ErrBadProblem) {
				t.Fatalf("%+v: plan %v, error %v; want ErrBadProblem", opts, plan.IDs(), err)
			}
		}
	}
}

func TestBruteForceCaps(t *testing.T) {
	items := make([]Item, maxBruteItems+1)
	for i := range items {
		items[i] = Item{ID: i, Prob: 1.0 / float64(len(items)), Retrieval: 1}
	}
	p := Problem{Items: items, Viewing: 5}
	if _, _, err := SolveSKPBruteCanonical(p); err == nil {
		t.Fatal("brute canonical accepted oversized instance")
	}
	if _, _, err := SolveSKPExhaustive(p); err == nil {
		t.Fatal("exhaustive accepted oversized instance")
	}
}

func BenchmarkSolveSKP10(b *testing.B)  { benchSolve(b, 10) }
func BenchmarkSolveSKP25(b *testing.B)  { benchSolve(b, 25) }
func BenchmarkSolveSKP100(b *testing.B) { benchSolve(b, 100) }

func benchSolve(b *testing.B, n int) {
	r := rng.New(77)
	probs := make([]float64, n)
	r.Dirichlet(0.5, probs)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
	}
	p := Problem{Items: items, Viewing: 50}
	s := NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSKPBrute10(b *testing.B) {
	r := rng.New(78)
	probs := make([]float64, 10)
	r.Dirichlet(0.5, probs)
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{ID: i, Prob: probs[i], Retrieval: float64(r.IntRange(1, 30))}
	}
	p := Problem{Items: items, Viewing: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveSKPBruteCanonical(p); err != nil {
			b.Fatal(err)
		}
	}
}
