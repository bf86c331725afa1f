package predict

import (
	"errors"
	"math"
	"testing"

	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

func TestValidate(t *testing.T) {
	good := []Config{
		{},
		{Kind: KindOracle},
		{Kind: KindDepGraph},
		{Kind: KindPPM, Order: 3},
		{Kind: KindShared, ColdStart: FallbackUniform},
		{Kind: KindDecay, HalfLife: 120},
		{Kind: KindMixture, MixWeight: 0.5},
		{Kind: KindPPMEscape, Order: 3},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d: Validate() = %v, want nil", i, err)
		}
	}
	bad := []Config{
		{Kind: "lstm"},
		{Kind: KindPPM, Order: -1},
		{ColdStart: "oracle"},
		{Kind: KindDecay, HalfLife: -1},
		{Kind: KindDecay, HalfLife: math.NaN()},
		{Kind: KindDecay, HalfLife: math.Inf(1)},
		{Kind: KindMixture, MixWeight: 1},
		{Kind: KindMixture, MixWeight: -0.5},
		{Kind: KindMixture, MixWeight: math.NaN()},
		{Kind: KindPPMEscape, Order: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: Validate() = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestKindsMatchNew(t *testing.T) {
	oracle := func(int) map[int]float64 { return map[int]float64{1: 1} }
	for _, k := range Kinds() {
		src, err := New(Config{Kind: k}, 0, oracle, NewAggregate())
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if src == nil {
			t.Fatalf("New(%s) returned nil source", k)
		}
	}
}

func TestNewRequiresHooks(t *testing.T) {
	if _, err := New(Config{Kind: KindOracle}, 0, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("oracle without hook: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Kind: KindShared}, 0, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("shared without aggregate: err = %v, want ErrBadConfig", err)
	}
}

func TestOraclePassesThrough(t *testing.T) {
	want := map[int]float64{3: 0.5, 4: 0.5}
	var got int
	o := NewOracle(func(state int) map[int]float64 {
		got = state
		return want
	})
	o.Observe(99) // must be a no-op
	d := o.Next(7)
	if got != 7 {
		t.Errorf("oracle queried state %d, want 7", got)
	}
	if len(d) != len(want) || d[3] != 0.5 || d[4] != 0.5 {
		t.Errorf("oracle distribution = %v, want %v", d, want)
	}
	if o.Name() != "oracle" {
		t.Errorf("Name() = %q", o.Name())
	}
}

// TestColdStartFallback: with FallbackNone a cold model predicts nothing;
// with FallbackUniform it spreads mass evenly over the pages seen so far,
// and the fallback disappears once the model has real evidence.
func TestColdStartFallback(t *testing.T) {
	none, err := New(Config{Kind: KindDepGraph}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	none.Observe(1)
	if d := none.Next(5); len(d) != 0 {
		t.Errorf("FallbackNone cold prediction = %v, want empty", d)
	}

	uni, err := New(Config{Kind: KindDepGraph, ColdStart: FallbackUniform}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := uni.Next(5); len(d) != 0 {
		t.Errorf("uniform fallback with nothing seen = %v, want empty", d)
	}
	uni.Observe(1)
	uni.Observe(2)
	d := uni.Next(5) // state 5 has no evidence
	if len(d) != 2 || math.Abs(d[1]-0.5) > 1e-12 || math.Abs(d[2]-0.5) > 1e-12 {
		t.Errorf("uniform fallback = %v, want {1:0.5, 2:0.5}", d)
	}
	// State 1 has evidence (1→2): the real model answers, not the fallback.
	d = uni.Next(1)
	if len(d) != 1 || d[2] != 1 {
		t.Errorf("warm prediction = %v, want {2:1}", d)
	}
}

// TestAggregatePerClientChains: the pooled model must form transitions
// within each client's stream only — interleaved observation order must
// never fabricate cross-client edges.
func TestAggregatePerClientChains(t *testing.T) {
	a := NewAggregate()
	// Client 0 walks 1→2→1→2..., client 1 walks 3→4→3→4..., interleaved.
	for i := 0; i < 10; i++ {
		a.ObserveClient(0, 1+i%2)
		a.ObserveClient(1, 3+i%2)
	}
	d := a.Next(1)
	if len(d) != 1 || d[2] != 1 {
		t.Errorf("Next(1) = %v, want {2:1}", d)
	}
	if d := a.Next(2); len(d) != 1 || d[1] != 1 {
		t.Errorf("Next(2) = %v, want {1:1}", d)
	}
	// No cross-client edge 1→3 or 2→3 may exist.
	if d := a.Next(1); d[3] != 0 || d[4] != 0 {
		t.Errorf("cross-client edges fabricated: %v", d)
	}
	if a.Observations() != 20 {
		t.Errorf("Observations() = %d, want 20", a.Observations())
	}
}

func TestAggregateTopPages(t *testing.T) {
	a := NewAggregate()
	stream := []int{5, 5, 5, 2, 2, 9, 7, 7, 7, 7}
	for _, p := range stream {
		a.ObserveClient(0, p)
	}
	got := a.TopPages(3)
	want := []int{7, 5, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("TopPages(3) = %v, want %v", got, want)
	}
	if full := a.TopPages(100); len(full) != 4 {
		t.Errorf("TopPages(100) returned %d pages, want 4", len(full))
	}
	if a.TopPages(0) != nil {
		t.Error("TopPages(0) should be nil")
	}
	// Ties break by lowest ID: 2 and 9 both... 2 has 2 accesses, 9 has 1 —
	// give 9 one more and the tie at count 2 must order 2 before 9.
	a.ObserveClient(0, 9)
	got = a.TopPages(4)
	if got[2] != 2 || got[3] != 9 {
		t.Errorf("tie-break order = %v, want [... 2 9]", got)
	}
}

func TestSharedViewsPoolStreams(t *testing.T) {
	a := NewAggregate()
	v0, v1 := a.ForClient(0), a.ForClient(1)
	if v0.Name() != "shared" {
		t.Errorf("Name() = %q", v0.Name())
	}
	// Both clients walk 1→2; each alone gives the edge one count, pooled
	// gives two — the views must read the pooled model.
	v0.Observe(1)
	v1.Observe(1)
	v0.Observe(2)
	v1.Observe(2)
	if d := v0.Next(1); len(d) != 1 || d[2] != 1 {
		t.Errorf("pooled Next(1) = %v, want {2:1}", d)
	}
	if a.Freq(1) != 2 || a.Freq(2) != 2 {
		t.Errorf("pooled freq = %d/%d, want 2/2", a.Freq(1), a.Freq(2))
	}
}

func TestL1(t *testing.T) {
	cases := []struct {
		p, q map[int]float64
		want float64
	}{
		{map[int]float64{}, map[int]float64{}, 0},
		{map[int]float64{1: 1}, map[int]float64{1: 1}, 0},
		{map[int]float64{1: 1}, map[int]float64{2: 1}, 2},
		{map[int]float64{1: 0.5, 2: 0.5}, map[int]float64{1: 1}, 1},
		{map[int]float64{}, map[int]float64{1: 0.25, 2: 0.25}, 0.5},
	}
	for i, c := range cases {
		if got := L1(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: L1 = %v, want %v", i, got, c.want)
		}
		if got := L1(c.q, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: L1 not symmetric: %v vs %v", i, got, c.want)
		}
	}
}

// TestL1DenseBitIdentical: over random sparse distributions — including
// disjoint supports and explicit zero-valued keys — the dense L1 over
// page-indexed vectors is bit for bit the map L1.
func TestL1DenseBitIdentical(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 2000; trial++ {
		pages := 1 + r.IntN(60)
		disjoint := trial%3 == 0
		p, q := map[int]float64{}, map[int]float64{}
		dp, dq := make([]float64, pages), make([]float64, pages)
		for i := 0; i < pages; i++ {
			inP := r.Float64() < 0.4
			if inP {
				p[i] = r.Float64()
				dp[i] = p[i]
			} else if r.Float64() < 0.2 {
				p[i] = 0 // an explicit zero-valued key
			}
			if disjoint && inP {
				continue
			}
			if r.Float64() < 0.4 {
				q[i] = r.Float64() / 3
				dq[i] = q[i]
			} else if r.Float64() < 0.2 {
				q[i] = 0
			}
		}
		want := L1(p, q)
		if got := L1Dense(dp, dq); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: L1Dense = %v (%#x), L1 = %v (%#x)\np = %v\nq = %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), p, q)
		}
	}
}

// TestNextIntoMatchesNext: for every built-in source under both
// cold-start fallbacks, NextInto fills a stale vector with bit for bit
// Next's values and zero off its support — on states the source has
// evidence for, and on cold states where the fallback answers.
func TestNextIntoMatchesNext(t *testing.T) {
	r := rng.New(31)
	site, err := webgraph.Generate(r, webgraph.DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, len(site.Pages))
	for _, kind := range Kinds() {
		for _, fb := range []Fallback{FallbackNone, FallbackUniform} {
			t.Run(string(kind)+"/"+string(fb), func(t *testing.T) {
				surfer := webgraph.NewSurfer(rng.New(41), site, 0.85)
				surfer.EnableDrift(rng.New(42), 30)
				agg := NewAggregate()
				src, err := New(Config{Kind: kind, ColdStart: fb}, 1, surfer.NextDistributionFrom, agg)
				if err != nil {
					t.Fatal(err)
				}
				other := agg.ForClient(2) // a second stream pooled into a shared model
				check := func(step, state int) {
					for i := range probs {
						probs[i] = math.NaN() // NextInto must overwrite
					}
					NextInto(src, state, probs)
					want := src.Next(state)
					for page, p := range probs {
						if w := want[page]; math.Float64bits(p) != math.Float64bits(w) {
							t.Fatalf("step %d state %d: NextInto[%d] = %v, Next %v", step, state, page, p, w)
						}
					}
				}
				check(-1, 0) // before any observation
				src.Observe(surfer.Current())
				for step := 0; step < 150; step++ {
					check(step, surfer.Current())
					check(step, (surfer.Current()+step)%len(site.Pages)) // often a cold state
					page := surfer.Step()
					src.Observe(page)
					other.Observe((page * 7) % len(site.Pages))
				}
			})
		}
	}
}

// trainOnSurfer walks a stationary random surfer for steps, feeding each
// access to the source, and returns the mean L1 error of the source's
// prediction at the visited states over the final evalWindow steps.
func trainOnSurfer(t *testing.T, src Source, seed uint64, steps, evalWindow int) float64 {
	t.Helper()
	r := rng.New(seed)
	cfg := webgraph.SiteConfig{
		Pages: 40, MinLinks: 3, MaxLinks: 6, ZipfS: 1.1,
		MinSizeKB: 2, MaxSizeKB: 40, BandwidthKBps: 16, LatencyS: 0.3,
	}
	site, err := webgraph.Generate(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	surfer := webgraph.NewSurfer(r, site, 0.85)
	src.Observe(surfer.Current())
	var sum float64
	var n int
	for i := 0; i < steps; i++ {
		state := surfer.Current()
		if i >= steps-evalWindow {
			sum += L1(src.Next(state), surfer.NextDistributionFrom(state))
			n++
		}
		src.Observe(surfer.Step())
	}
	return sum / float64(n)
}

// TestLearnedConvergeToTrueDistribution is the convergence property test:
// trained on a stationary surfer, both depgraph and ppm must drive their
// prediction L1 error well below the cold model's (2 = disjoint support,
// ~1 after the first few observations) and keep shrinking with more
// training — the learned distribution approaches the true
// NextDistribution.
func TestLearnedConvergeToTrueDistribution(t *testing.T) {
	build := func(kind Kind) Source {
		src, err := New(Config{Kind: kind}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, kind := range []Kind{KindDepGraph, KindPPM, KindDecay, KindMixture, KindPPMEscape} {
		for _, seed := range []uint64{1, 7, 42} {
			early := trainOnSurfer(t, build(kind), seed, 500, 250)
			late := trainOnSurfer(t, build(kind), seed, 30000, 2000)
			t.Logf("%s seed %d: early L1 %.3f, late L1 %.3f", kind, seed, early, late)
			if late >= early {
				t.Errorf("%s seed %d: L1 did not shrink with training (early %.3f, late %.3f)",
					kind, seed, early, late)
			}
			if late > 0.75 {
				t.Errorf("%s seed %d: late L1 %.3f too far from the true distribution", kind, seed, late)
			}
		}
	}
}

// trainOnDriftingSurfer is trainOnSurfer on a non-stationary surfer: the
// hot set is re-drawn every driftEvery steps from a dedicated derived
// drift stream, exactly as the multiclient simulation wires it.
func trainOnDriftingSurfer(t *testing.T, src Source, seed uint64, steps, driftEvery, evalWindow int) float64 {
	t.Helper()
	r := rng.New(seed)
	cfg := webgraph.SiteConfig{
		Pages: 40, MinLinks: 3, MaxLinks: 6, ZipfS: 1.1,
		MinSizeKB: 2, MaxSizeKB: 40, BandwidthKBps: 16, LatencyS: 0.3,
	}
	site, err := webgraph.Generate(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	surfer := webgraph.NewSurfer(r, site, 0.85)
	surfer.EnableDrift(rng.Derive(seed, "drift"), driftEvery)
	src.Observe(surfer.Current())
	var sum float64
	var n int
	for i := 0; i < steps; i++ {
		state := surfer.Current()
		if i >= steps-evalWindow {
			sum += L1(src.Next(state), surfer.NextDistributionFrom(state))
			n++
		}
		src.Observe(surfer.Step())
	}
	return sum / float64(n)
}

// TestDriftRecoveryProperty is the drift-recovery property test: after
// the hot set shifts mid-run, the decayed-count source must re-converge
// (its late-window L1 error returns near its stationary level and ends
// up below the undecayed dependency graph's), while plain counts must
// NOT re-converge (their stale pre-shift evidence keeps the late error
// far above their stationary level) — the behaviour that makes decay
// worth its evidence loss on stationary workloads, where the ranking is
// inverted.
func TestDriftRecoveryProperty(t *testing.T) {
	const (
		steps  = 30000
		shift  = 15000 // one hot-set re-draw at mid-run
		window = 2000
	)
	build := func(kind Kind) Source {
		src, err := New(Config{Kind: kind}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, seed := range []uint64{1, 7, 42} {
		depStat := trainOnSurfer(t, build(KindDepGraph), seed, steps, window)
		decStat := trainOnSurfer(t, build(KindDecay), seed, steps, window)
		depDrift := trainOnDriftingSurfer(t, build(KindDepGraph), seed, steps, shift, window)
		decDrift := trainOnDriftingSurfer(t, build(KindDecay), seed, steps, shift, window)
		t.Logf("seed %d: stationary depgraph %.3f decay %.3f | drifted depgraph %.3f decay %.3f",
			seed, depStat, decStat, depDrift, decDrift)
		// Stationary ranking: decay pays for its forgetting.
		if depStat >= decStat {
			t.Errorf("seed %d: stationary depgraph L1 %.3f not below decay %.3f",
				seed, depStat, decStat)
		}
		// Drifted ranking inverts: decay re-converges below plain counts.
		if decDrift >= depDrift {
			t.Errorf("seed %d: post-shift decay L1 %.3f did not re-converge below depgraph %.3f",
				seed, decDrift, depDrift)
		}
		// Decay genuinely recovers (back near its stationary error)...
		if decDrift > 1.5*decStat {
			t.Errorf("seed %d: post-shift decay L1 %.3f far above its stationary %.3f",
				seed, decDrift, decStat)
		}
		// ...while plain counts stay anchored to the stale phase.
		if depDrift < 2*depStat {
			t.Errorf("seed %d: post-shift depgraph L1 %.3f suspiciously close to its stationary %.3f — drift too weak to matter",
				seed, depDrift, depStat)
		}
	}
}

// TestNewSourcesDeterministic: the drift-tracking sources are pure
// functions of their observation streams — two instances fed the same
// stream answer Next with bit-for-bit identical maps at every state.
func TestNewSourcesDeterministic(t *testing.T) {
	for _, kind := range []Kind{KindDecay, KindMixture, KindPPMEscape} {
		t.Run(string(kind), func(t *testing.T) {
			a, err := New(Config{Kind: kind}, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(Config{Kind: kind}, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(99)
			stream := make([]int, 4000)
			for i := range stream {
				stream[i] = r.IntN(25)
			}
			for i, page := range stream {
				a.Observe(page)
				b.Observe(page)
				if i%7 != 0 {
					continue
				}
				da, db := a.Next(page), b.Next(page)
				if len(da) != len(db) {
					t.Fatalf("step %d: support sizes differ: %d vs %d", i, len(da), len(db))
				}
				for p, v := range da {
					if db[p] != v {
						t.Fatalf("step %d page %d: %v vs %v", i, p, v, db[p])
					}
				}
			}
		})
	}
}

// TestDecayForgets pins the decay semantics: after a burst of 1→2
// transitions followed by halfLives' worth of 1→3 transitions, the new
// evidence must dominate, while a plain dependency graph still splits
// by raw counts.
func TestDecayForgets(t *testing.T) {
	src, err := New(Config{Kind: KindDecay, HalfLife: 10}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 40 observations of 1→2, then 40 of 1→3 (interleaved with returns
	// to 1 so every pair is a 1→x transition).
	for i := 0; i < 40; i++ {
		src.Observe(1)
		src.Observe(2)
	}
	for i := 0; i < 40; i++ {
		src.Observe(1)
		src.Observe(3)
	}
	d := src.Next(1)
	if d[3] <= 0.9 {
		t.Errorf("decay Next(1)[3] = %.3f after 8 half-lives of 1→3, want > 0.9 (full: %v)", d[3], d)
	}
	if d[2] >= d[3] {
		t.Errorf("stale edge 1→2 (%.3f) still outweighs fresh 1→3 (%.3f)", d[2], d[3])
	}
}

// TestMixtureBlends pins the mixture semantics: predictions blend the
// transition estimate with global popularity at the configured weight,
// and a state with no transition evidence escapes fully to popularity.
func TestMixtureBlends(t *testing.T) {
	src, err := New(Config{Kind: KindMixture, MixWeight: 0.4}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1,2,1,2,...: transitions 1→2 and 2→1; popularity 50/50.
	for i := 0; i < 10; i++ {
		src.Observe(1)
		src.Observe(2)
	}
	d := src.Next(1)
	// (1−w)·1 [transition 1→2] + w·freq share.
	want2 := 0.6*1 + 0.4*float64(10)/20
	if math.Abs(d[2]-want2) > 1e-12 {
		t.Errorf("Next(1)[2] = %v, want %v", d[2], want2)
	}
	if math.Abs(d[1]-0.4*0.5) > 1e-12 {
		t.Errorf("Next(1)[1] = %v, want %v (popularity share only)", d[1], 0.4*0.5)
	}
	// Unseen state: full escape to popularity.
	e := src.Next(99)
	if math.Abs(e[1]-0.5) > 1e-12 || math.Abs(e[2]-0.5) > 1e-12 {
		t.Errorf("cold-state escape = %v, want {1:0.5, 2:0.5}", e)
	}
}

// TestPPMEscapeNeverCliffs pins the escape semantics: even at a state
// whose order-1 context was never seen, the source still predicts from
// global frequencies — no hard cold-start cliff — and its distribution
// mass never exceeds 1.
func TestPPMEscapeNeverCliffs(t *testing.T) {
	src, err := New(Config{Kind: KindPPMEscape, Order: 2}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "ppm-escape-2" {
		t.Errorf("Name() = %q", src.Name())
	}
	for _, page := range []int{1, 2, 3, 1, 2, 3, 1, 2} {
		src.Observe(page)
	}
	// State 9 has no context of any order: order-0 frequencies answer.
	d := src.Next(9)
	if len(d) == 0 {
		t.Fatal("escape PPM fell off a cold-start cliff")
	}
	var mass float64
	for _, p := range d {
		mass += p
	}
	if mass > 1+1e-12 {
		t.Errorf("mass %v > 1", mass)
	}
	if d[1] <= 0 || d[2] <= 0 || d[3] <= 0 {
		t.Errorf("order-0 backstop missing pages: %v", d)
	}
	// A warm state blends orders: the longest-context successor must
	// dominate.
	w := src.Next(2)
	if w[3] <= w[1] {
		t.Errorf("warm prediction %v does not favour the observed successor", w)
	}
}
