package access

import (
	"fmt"
	"math"
	"testing"

	"prefetch/internal/rng"
)

func checkSimplex(t *testing.T, probs []float64) {
	t.Helper()
	var sum float64
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("prob[%d] = %v", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestGeneratorsProduceSimplex(t *testing.T) {
	r := rng.New(61)
	gens := []ProbGen{FlatGen{}, SkewyGen{}, SkewyGen{Alpha: 3}, ZipfGen{}, ZipfGen{S: 2}, GeometricGen{}, GeometricGen{Theta: 0.9}}
	for _, g := range gens {
		for _, n := range []int{1, 2, 10, 25} {
			out := make([]float64, n)
			g.Generate(r, out)
			checkSimplex(t, out)
		}
		if g.Name() == "" {
			t.Fatal("generator without a name")
		}
	}
}

func TestSkewyIsSkewerThanFlat(t *testing.T) {
	r := rng.New(62)
	const n, reps = 10, 3000
	meanMax := func(g ProbGen) float64 {
		var total float64
		out := make([]float64, n)
		for i := 0; i < reps; i++ {
			g.Generate(r, out)
			total += maxOf(out)
		}
		return total / reps
	}
	flat := meanMax(FlatGen{})
	skewy := meanMax(SkewyGen{})
	if skewy < flat+0.2 {
		t.Fatalf("skewy mean max %v not clearly above flat %v", skewy, flat)
	}
	// The skewy method should make the next request "highly predictable":
	// dominant item above 60% on average at the default alpha.
	if skewy < 0.6 {
		t.Fatalf("skewy mean max %v below 0.6; not 'highly predictable'", skewy)
	}
	// Flat over 10 items should have no dominant item on average.
	if flat > 0.45 {
		t.Fatalf("flat mean max %v too skewed", flat)
	}
}

func TestZipfAndGeometricSkewKnobs(t *testing.T) {
	r := rng.New(63)
	out := make([]float64, 20)
	meanMax := func(g ProbGen) float64 {
		var total float64
		const reps = 500
		for i := 0; i < reps; i++ {
			g.Generate(r, out)
			total += maxOf(out)
		}
		return total / reps
	}
	if meanMax(ZipfGen{S: 2}) <= meanMax(ZipfGen{S: 0.5}) {
		t.Fatal("larger Zipf exponent should concentrate mass")
	}
	if meanMax(GeometricGen{Theta: 0.3}) <= meanMax(GeometricGen{Theta: 0.9}) {
		t.Fatal("smaller geometric theta should concentrate mass")
	}
}

func TestGenByName(t *testing.T) {
	for _, name := range []string{"flat", "skewy", "zipf", "geometric"} {
		g, err := GenByName(name)
		if err != nil {
			t.Fatalf("GenByName(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("GenByName(%q).Name() = %q", name, g.Name())
		}
	}
	if _, err := GenByName("nope"); err == nil {
		t.Fatal("unknown generator accepted")
	}
}

func TestBuildMarkovFig7Shape(t *testing.T) {
	r := rng.New(64)
	m, err := BuildMarkov(r, Fig7MarkovConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.States() != 100 {
		t.Fatalf("states = %d", m.States())
	}
	for s := 0; s < m.States(); s++ {
		succ, prob := m.Successors(s)
		if len(succ) < 10 || len(succ) > 20 {
			t.Fatalf("state %d out-degree %d outside [10,20]", s, len(succ))
		}
		if len(succ) != len(prob) {
			t.Fatalf("state %d successor/probability length mismatch", s)
		}
		var sum float64
		seen := map[int]bool{}
		for i, target := range succ {
			if target < 0 || target >= m.States() {
				t.Fatalf("state %d successor %d out of range", s, target)
			}
			if seen[target] {
				t.Fatalf("state %d repeats successor %d", s, target)
			}
			seen[target] = true
			if prob[i] <= 0 {
				t.Fatalf("state %d transition prob %v", s, prob[i])
			}
			sum += prob[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("state %d transition probs sum to %v", s, sum)
		}
		if v := m.Viewing(s); v < 1 || v > 100 {
			t.Fatalf("state %d viewing time %v outside [1,100]", s, v)
		}
	}
}

func TestMarkovNextFollowsTransitions(t *testing.T) {
	r := rng.New(65)
	m, err := BuildMarkov(r, MarkovConfig{States: 10, MinOut: 2, MaxOut: 4, MinViewing: 1, MaxViewing: 10})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 1000; step++ {
		s := m.State()
		succ, _ := m.Successors(s)
		next := m.Next()
		ok := false
		for _, target := range succ {
			if target == next {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("step %d: transition %d -> %d not in successor list %v", step, s, next, succ)
		}
		if next != m.State() {
			t.Fatal("Next() return value disagrees with State()")
		}
	}
	m.Reset()
	if m.State() != 0 {
		t.Fatal("Reset did not return to state 0")
	}
}

func TestMarkovTransitionFrequencies(t *testing.T) {
	// Empirical transition frequencies out of a fixed state must match the
	// declared probabilities.
	r := rng.New(66)
	m, err := BuildMarkov(r, MarkovConfig{States: 5, MinOut: 3, MaxOut: 3, MinViewing: 1, MaxViewing: 1})
	if err != nil {
		t.Fatal(err)
	}
	succ, prob := m.Successors(0)
	counts := map[int]int{}
	const reps = 200000
	for i := 0; i < reps; i++ {
		m.Reset()
		counts[m.Next()]++
	}
	for i, target := range succ {
		got := float64(counts[target]) / reps
		if math.Abs(got-prob[i]) > 0.01 {
			t.Fatalf("transition 0->%d frequency %v, want %v", target, got, prob[i])
		}
	}
}

func TestBuildMarkovValidation(t *testing.T) {
	r := rng.New(67)
	bad := []MarkovConfig{
		{States: 0, MinOut: 1, MaxOut: 1},
		{States: 5, MinOut: 0, MaxOut: 3},
		{States: 5, MinOut: 4, MaxOut: 3},
		{States: 5, MinOut: 2, MaxOut: 9},
		{States: 5, MinOut: 2, MaxOut: 3, MinViewing: -1},
		{States: 5, MinOut: 2, MaxOut: 3, MinViewing: 5, MaxViewing: 1},
	}
	for i, cfg := range bad {
		if _, err := BuildMarkov(r, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDependencyGraphLearnsTransitions(t *testing.T) {
	d := NewDependencyGraph()
	if len(d.Predict()) != 0 {
		t.Fatal("empty model must predict nothing")
	}
	// Feed A,B,A,B,A,C: from A we saw B twice and C once.
	for _, it := range []int{1, 2, 1, 2, 1, 3} {
		d.Observe(it)
	}
	d.Observe(1) // land on A
	pred := d.Predict()
	if math.Abs(pred[2]-2.0/3.0) > 1e-12 || math.Abs(pred[3]-1.0/3.0) > 1e-12 {
		t.Fatalf("prediction from A = %v, want {2: 2/3, 3: 1/3}", pred)
	}
	var sum float64
	for _, p := range pred {
		sum += p
	}
	if sum > 1+1e-9 {
		t.Fatalf("prediction mass %v exceeds 1", sum)
	}
	if d.Name() == "" {
		t.Fatal("predictor without a name")
	}
}

func TestDependencyGraphUnseenState(t *testing.T) {
	d := NewDependencyGraph()
	d.Observe(1)
	d.Observe(2)
	d.Observe(99) // 99 never had an outgoing observation
	if len(d.Predict()) != 0 {
		t.Fatal("prediction from unseen state must be empty")
	}
}

func TestPPMOrder2BeatsOrder1OnAlternation(t *testing.T) {
	// Sequence: 1,2,1,3,1,2,1,3,... After context [2,1] the next is always
	// 3; after [3,1] always 2. Order-1 sees only "after 1" = {2: 1/2, 3: 1/2}.
	p1, err := NewPPM(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPPM(2)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{}
	for i := 0; i < 40; i++ {
		seq = append(seq, 1, 2, 1, 3)
	}
	for _, it := range seq {
		p1.Observe(it)
		p2.Observe(it)
	}
	// History ends ...,1,3 — wait, seq pattern repeats (1,2,1,3); last two
	// observations are 1,3. Next in pattern is 1.
	pred2 := p2.Predict()
	if pred2[1] < 0.99 {
		t.Fatalf("order-2 should be certain of 1 after (1,3): %v", pred2)
	}
	pred1 := p1.Predict()
	if pred1[1] < 0.99 {
		t.Fatalf("order-1 after 3 also predicts 1: %v", pred1)
	}
	// Distinguishing context: after (2,1) order-2 says 3; order-1 after 1 is split.
	p2.Observe(1)
	p2.Observe(2)
	p2.Observe(1)
	if pred := p2.Predict(); pred[3] < 0.99 {
		t.Fatalf("order-2 after (2,1) should predict 3: %v", pred)
	}
	p1.Observe(1)
	pred1 = p1.Predict()
	if pred1[2] < 0.3 || pred1[3] < 0.3 {
		t.Fatalf("order-1 after 1 should split between 2 and 3: %v", pred1)
	}
}

func TestPPMEscapesToShorterContext(t *testing.T) {
	p, err := NewPPM(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int{5, 6, 5, 6, 5} {
		p.Observe(it)
	}
	// Make the long context unseen by jumping to a fresh item whose order-1
	// context was still observed once.
	p.Observe(6)
	pred := p.Predict()
	if pred[5] < 0.99 {
		t.Fatalf("after 6, order-1 evidence says 5: %v", pred)
	}
	// Entirely fresh item: no context at any order.
	p.Observe(42)
	if len(p.Predict()) != 0 {
		t.Fatal("prediction after unseen item must be empty")
	}
}

func TestPPMValidation(t *testing.T) {
	if _, err := NewPPM(0); err == nil {
		t.Fatal("order-0 PPM accepted")
	}
}

func TestCtxKeyUnambiguous(t *testing.T) {
	// (1,23) and (12,3) must not collide.
	if string(AppendContextKey(nil, []int{1, 23})) == string(AppendContextKey(nil, []int{12, 3})) {
		t.Fatal("context key collision")
	}
	// The keys are byte-for-byte the "%d," encoding they replace.
	for _, items := range [][]int{nil, {0}, {7, 119}, {-3, 1 << 40, 0, 42}} {
		var want []byte
		for _, it := range items {
			want = fmt.Appendf(want, "%d,", it)
		}
		if got := AppendContextKey([]byte("stale"), items)[len("stale"):]; string(got) != string(want) {
			t.Errorf("AppendContextKey(%v) = %q, want %q", items, got, want)
		}
	}
}

func TestPredictorsAgreeWithMarkovChain(t *testing.T) {
	// Train the dependency graph on a long walk of a known chain; its
	// predictions should approach the true transition probabilities.
	r := rng.New(68)
	m, err := BuildMarkov(r, MarkovConfig{States: 8, MinOut: 3, MaxOut: 3, MinViewing: 1, MaxViewing: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDependencyGraph()
	d.Observe(m.State())
	for i := 0; i < 300000; i++ {
		d.Observe(m.Next())
	}
	s := m.State()
	succ, prob := m.Successors(s)
	pred := d.Predict()
	for i, target := range succ {
		if math.Abs(pred[target]-prob[i]) > 0.02 {
			t.Fatalf("learned P(%d|%d) = %v, true %v", target, s, pred[target], prob[i])
		}
	}
}

func BenchmarkMarkovNext(b *testing.B) {
	r := rng.New(69)
	m, err := BuildMarkov(r, Fig7MarkovConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Next()
	}
}

func BenchmarkSkewyGenerate10(b *testing.B) {
	r := rng.New(70)
	out := make([]float64, 10)
	g := SkewyGen{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(r, out)
	}
}

// TestPredictorNextExplicitState: Next(state) must predict from the given
// state — matching Predict() when state is the last observation, and
// answering for arbitrary states independently of the tracked context
// (PPM escapes to the order-1 context of the queried state).
func TestPredictorNextExplicitState(t *testing.T) {
	d := NewDependencyGraph()
	for _, it := range []int{1, 2, 1, 3, 1, 2} {
		d.Observe(it)
	}
	// last == 2: Predict and Next(2) agree.
	p1, p2 := d.Predict(), d.Next(2)
	if len(p1) != len(p2) || p1[1] != p2[1] {
		t.Errorf("Predict %v disagrees with Next(last) %v", p1, p2)
	}
	// Out of 1 we saw 2,3,2: Next(1) must not depend on last being 2.
	n1 := d.Next(1)
	if len(n1) != 2 || n1[2] != 2.0/3 || n1[3] != 1.0/3 {
		t.Errorf("Next(1) = %v, want {2:2/3, 3:1/3}", n1)
	}
	if len(d.Next(99)) != 0 {
		t.Error("Next of an unseen state should be empty")
	}

	p, err := NewPPM(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int{1, 2, 3, 1, 2, 4, 1, 2} {
		p.Observe(it)
	}
	// History ends 1,2: the order-2 context predicts {3,4} evenly.
	got := p.Next(2)
	if len(got) != 2 || got[3] != 0.5 || got[4] != 0.5 {
		t.Errorf("Next(2) with full context = %v, want {3:0.5, 4:0.5}", got)
	}
	// Querying state 1 (not the last observation) must escape to the
	// order-1 context of 1 alone: always followed by 2.
	got = p.Next(1)
	if len(got) != 1 || got[2] != 1 {
		t.Errorf("Next(1) off-context = %v, want {2:1}", got)
	}
}
