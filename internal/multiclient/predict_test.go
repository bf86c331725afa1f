package multiclient

import (
	"errors"
	"reflect"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/predict"
	"prefetch/internal/sweep"
)

// TestOracleReplaysDefault is the refactor's acceptance bar: the explicit
// oracle predictor must replay the zero-value (pre-subsystem)
// configuration bit for bit under EVERY discipline×controller pair — the
// prediction subsystem may not perturb the PR 3 timelines at all.
func TestOracleReplaysDefault(t *testing.T) {
	ctls := append([]adaptive.Config{{}}, adaptiveConfigs()...)
	for name, sched := range schedConfigs() {
		for _, ac := range ctls {
			ctlName := string(ac.Kind)
			if ctlName == "" {
				ctlName = "default"
			}
			t.Run(name+"/"+ctlName, func(t *testing.T) {
				cfg := testConfig()
				cfg.Sched = sched
				cfg.Adaptive = ac
				def, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Predict = predict.Config{Kind: predict.KindOracle}
				exp, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if def.Access.Mean() != exp.Access.Mean() || def.Access.N() != exp.Access.N() ||
					def.Elapsed != exp.Elapsed || def.ServerBusy != exp.ServerBusy ||
					def.QueueWait.Mean() != exp.QueueWait.Mean() ||
					def.Lambda.Mean() != exp.Lambda.Mean() ||
					def.SpecCompleted != exp.SpecCompleted || def.Preemptions != exp.Preemptions ||
					def.PrefetchDropped != exp.PrefetchDropped || def.PrefetchDeferred != exp.PrefetchDeferred {
					t.Errorf("explicit oracle diverged from default: %s vs %s", summary(def), summary(exp))
				}
				for i := range def.PerClient {
					pa, pb := def.PerClient[i], exp.PerClient[i]
					if pa.Access.Mean() != pb.Access.Mean() || pa.DemandAccess.Mean() != pb.DemandAccess.Mean() ||
						pa.PrefetchIssued != pb.PrefetchIssued || pa.QueueWait.Mean() != pb.QueueWait.Mean() ||
						pa.Lambda.Mean() != pb.Lambda.Mean() {
						t.Errorf("client %d diverged under explicit oracle predictor", i)
					}
				}
			})
		}
	}
}

// predictConfigs enumerates every predictor for the replay tests.
func predictConfigs() []predict.Config {
	return []predict.Config{
		{Kind: predict.KindOracle},
		{Kind: predict.KindDepGraph},
		{Kind: predict.KindDepGraph, ColdStart: predict.FallbackUniform},
		{Kind: predict.KindPPM, Order: 2},
		{Kind: predict.KindShared},
		{Kind: predict.KindDecay, HalfLife: 60},
		{Kind: predict.KindMixture, MixWeight: 0.3},
		{Kind: predict.KindPPMEscape, Order: 2},
	}
}

// TestPredictorDeterminism: every prediction source replays bit for bit —
// sources are pure functions of their observation streams.
func TestPredictorDeterminism(t *testing.T) {
	for _, pc := range predictConfigs() {
		t.Run(string(pc.Kind), func(t *testing.T) {
			cfg := testConfig()
			cfg.Predict = pc
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Access.Mean() != b.Access.Mean() || a.Elapsed != b.Elapsed ||
				a.ServerBusy != b.ServerBusy || a.L1Error.Mean() != b.L1Error.Mean() ||
				a.PrefetchCompleted != b.PrefetchCompleted || a.PrefetchUseful != b.PrefetchUseful {
				t.Errorf("replay diverged: %s vs %s", summary(a), summary(b))
			}
			for i := range a.PerClient {
				pa, pb := a.PerClient[i], b.PerClient[i]
				if pa.Access.Mean() != pb.Access.Mean() || pa.L1Error.Mean() != pb.L1Error.Mean() {
					t.Errorf("client %d replay diverged", i)
				}
			}
		})
	}
}

// TestPredictionMetricsRecorded: every planned round records one L1
// observation; the oracle's error is identically zero while a learned
// predictor's is positive; the no-prefetch baseline records nothing.
func TestPredictionMetricsRecorded(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictor != string(predict.KindOracle) {
		t.Errorf("Predictor = %q, want oracle", res.Predictor)
	}
	if want := int64(cfg.Clients * cfg.Rounds); res.L1Error.N() != want {
		t.Errorf("L1 observations = %d, want %d (one per planned round)", res.L1Error.N(), want)
	}
	if res.L1Error.Max() != 0 {
		t.Errorf("oracle L1 max = %v, want 0", res.L1Error.Max())
	}

	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	learned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if learned.Predictor != string(predict.KindDepGraph) {
		t.Errorf("Predictor = %q, want depgraph", learned.Predictor)
	}
	if learned.L1Error.Mean() <= 0 {
		t.Error("learned predictor recorded zero L1 error")
	}

	cfg.DisablePrefetch = true
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.L1Error.N() != 0 {
		t.Errorf("no-prefetch baseline recorded %d L1 observations", base.L1Error.N())
	}
	if base.PrefetchCompleted != 0 || base.PrefetchUseful != 0 {
		t.Errorf("baseline counted speculative transfers: %d completed, %d useful",
			base.PrefetchCompleted, base.PrefetchUseful)
	}
}

// TestWastedPrefetchAccounting: useful never exceeds completed, the
// per-client counters sum to the aggregate, and the fraction is in [0,1].
func TestWastedPrefetchAccounting(t *testing.T) {
	for _, pc := range predictConfigs() {
		t.Run(string(pc.Kind), func(t *testing.T) {
			cfg := testConfig()
			cfg.Predict = pc
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var completed, useful int64
			for _, c := range res.PerClient {
				if c.PrefetchUseful > c.PrefetchCompleted {
					t.Errorf("client %d: useful %d > completed %d", c.Client, c.PrefetchUseful, c.PrefetchCompleted)
				}
				completed += c.PrefetchCompleted
				useful += c.PrefetchUseful
			}
			if completed != res.PrefetchCompleted || useful != res.PrefetchUseful {
				t.Errorf("per-client sums %d/%d disagree with aggregate %d/%d",
					completed, useful, res.PrefetchCompleted, res.PrefetchUseful)
			}
			if f := res.WastedPrefetchFraction(); f < 0 || f > 1 {
				t.Errorf("wasted-prefetch fraction %v outside [0,1]", f)
			}
			if h := res.HitRatio(); h < 0 || h > 1 {
				t.Errorf("hit ratio %v outside [0,1]", h)
			}
		})
	}
}

// TestOracleBeatsLearnedOnHits: without contention the oracle's perfect
// knowledge must produce at least as high a zero-fetch hit ratio as a
// cold-started learned model on the identical workload — the
// oracle-vs-learned gap the subsystem exists to measure.
func TestOracleBeatsLearnedOnHits(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 2
	cfg.ServerConcurrency = cfg.Clients * (cfg.MaxCandidates + 1)
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	learned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hit ratio: oracle %.3f, depgraph %.3f (L1 %.3f)",
		oracle.HitRatio(), learned.HitRatio(), learned.L1Error.Mean())
	if oracle.HitRatio() < learned.HitRatio() {
		t.Errorf("oracle hit ratio %.3f below learned %.3f", oracle.HitRatio(), learned.HitRatio())
	}
	if learned.L1Error.Mean() <= 0 {
		t.Error("learned L1 error not positive")
	}
}

// TestWarmCacheValidation: warming requires the shared predictor and a
// server cache.
func TestWarmCacheValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WarmServerCache = true
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("warming without cache/shared: err = %v, want ErrBadConfig", err)
	}
	cfg.ServerCacheSlots = 20
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("warming without shared predictor: err = %v, want ErrBadConfig", err)
	}
	cfg.Predict = predict.Config{Kind: predict.KindPPM}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("warming with ppm predictor: err = %v, want ErrBadConfig", err)
	}
}

// TestWarmCacheWarms: with the shared predictor and warming enabled on a
// popularity-skewed site, the server must pre-admit pages, record warm
// hits, and stay deterministic.
func TestWarmCacheWarms(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 6
	cfg.ServerCacheSlots = 20
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmInserted != 0 || cold.WarmHits != 0 {
		t.Errorf("warming disabled but counted %d inserts / %d hits", cold.WarmInserted, cold.WarmHits)
	}
	cfg.WarmServerCache = true
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmInserted == 0 {
		t.Error("warming enabled but nothing pre-admitted")
	}
	if warm.WarmHits == 0 {
		t.Error("warming produced no warm hits")
	}
	if warm.WarmHits > warm.ServerCacheHits {
		t.Errorf("warm hits %d exceed total cache hits %d", warm.WarmHits, warm.ServerCacheHits)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Access.Mean() != again.Access.Mean() || warm.WarmInserted != again.WarmInserted ||
		warm.WarmHits != again.WarmHits || warm.Elapsed != again.Elapsed {
		t.Error("warmed run did not replay bit for bit")
	}
}

// TestSweepPredictors covers the predictor sweep: one point per kind,
// deterministic across worker counts, metrics populated.
func TestSweepPredictors(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 40
	kinds := predict.Kinds()
	a, err := Sweep(cfg, 2, 0, true, PredictorAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(kinds) {
		t.Fatalf("got %d points, want %d", len(a), len(kinds))
	}
	for i, p := range a {
		if p.Labels[0] != string(kinds[i]) || p.Config.Predict.Kind != kinds[i] || p.Clients != cfg.Clients || p.Reps != 2 {
			t.Errorf("point %d = (%v, N=%d, reps=%d)", i, p.Labels, p.Clients, p.Reps)
		}
		if want := int64(cfg.Clients * cfg.Rounds * 2); p.Access.N() != want || p.L1Error.N() != want {
			t.Errorf("point %d merged %d access / %d L1 observations, want %d",
				i, p.Access.N(), p.L1Error.N(), want)
		}
	}
	if a[0].L1Error.Max() != 0 {
		t.Errorf("oracle point L1 max = %v, want 0", a[0].L1Error.Max())
	}
	b, err := Sweep(cfg, 2, 1, true, PredictorAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Access.Mean() != b[i].Access.Mean() || a[i].L1Error.Mean() != b[i].L1Error.Mean() {
			t.Errorf("point %d differs across worker counts", i)
		}
	}
}

func TestSweepPredictorsBadAxis(t *testing.T) {
	cfg := testConfig()
	if _, err := Sweep(cfg, 1, 0, true, PredictorAxis(nil)); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 1, 0, true, PredictorAxis([]predict.Kind{"lstm"})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown kind: err = %v, want ErrBadConfig", err)
	}
	if _, err := Sweep(cfg, 0, 0, true, PredictorAxis(predict.Kinds())); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
}

// TestSweepPredictorControllers covers the controller × predictor grid:
// controller-major order, no baseline leg, per-controller Pareto
// frontier non-empty, deterministic across worker counts.
func TestSweepPredictorControllers(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 40
	preds := []predict.Kind{predict.KindOracle, predict.KindDepGraph}
	ctls := []adaptive.Kind{adaptive.KindStatic, adaptive.KindAIMD}
	grid := func(workers int) []Point {
		t.Helper()
		pts, err := Sweep(cfg, 2, workers, false, ControllerAxis(ctls), PredictorAxis(preds))
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a := grid(0)
	if len(a) != len(preds)*len(ctls) {
		t.Fatalf("got %d points, want %d", len(a), len(preds)*len(ctls))
	}
	for ci, ck := range ctls {
		row := a[ci*len(preds) : (ci+1)*len(preds)]
		for pi, pk := range preds {
			p := row[pi]
			if want := []string{string(ck), string(pk)}; !reflect.DeepEqual(p.Labels, want) ||
				p.Config.Adaptive.Kind != ck || p.Config.Predict.Kind != pk {
				t.Errorf("cell (%d,%d) labels %v, want %v", ci, pi, p.Labels, want)
			}
			if p.Improvement.N() != 0 {
				t.Errorf("cell (%d,%d) has Improvement observations in a baseline-free sweep", ci, pi)
			}
		}
		frontier := 0
		for _, on := range ParetoFrontier(row) {
			if on {
				frontier++
			}
		}
		if frontier == 0 {
			t.Errorf("controller %s has an empty Pareto frontier", ck)
		}
	}
	b := grid(1)
	for i := range a {
		if a[i].DemandAccess.Mean() != b[i].DemandAccess.Mean() || a[i].SpecThroughput != b[i].SpecThroughput {
			t.Errorf("cell %d differs across worker counts", i)
		}
	}
}

func TestSweepPredictorControllersBadAxis(t *testing.T) {
	cfg := testConfig()
	preds := []predict.Kind{predict.KindOracle}
	ctls := []adaptive.Kind{adaptive.KindStatic}
	if _, err := Sweep(cfg, 1, 0, false, ControllerAxis(ctls), PredictorAxis(nil)); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty predictor axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 1, 0, false, ControllerAxis(nil), PredictorAxis(preds)); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty controller axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 0, 0, false, ControllerAxis(ctls), PredictorAxis(preds)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
	if _, err := Sweep(cfg, 1, 0, false, ControllerAxis(ctls), PredictorAxis([]predict.Kind{"lstm"})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown predictor: err = %v, want ErrBadConfig", err)
	}
}

// TestMarkPareto pins the dominance logic on a hand-built group.
func TestMarkPareto(t *testing.T) {
	mk := func(demand, spec float64) Point {
		var p Point
		p.DemandAccess.Add(demand)
		p.SpecThroughput.Add(spec)
		return p
	}
	group := []Point{
		mk(1, 5),   // frontier: best latency
		mk(2, 9),   // frontier: best throughput
		mk(3, 7),   // dominated by (2,9)
		mk(2, 9),   // duplicate of frontier point: also non-dominated
		mk(1.5, 6), // frontier: between (1,5) and (2,9)
	}
	want := []bool{true, true, false, true, true}
	if got := ParetoFrontier(group); !reflect.DeepEqual(got, want) {
		t.Errorf("ParetoFrontier = %v, want %v", got, want)
	}
}

// TestPredictBadConfigRejected: predictor validation surfaces through the
// multiclient config check.
func TestPredictBadConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Predict = predict.Config{Kind: "lstm"}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown predictor: err = %v, want ErrBadConfig", err)
	}
	cfg.Predict = predict.Config{Kind: predict.KindPPM, Order: -2}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative order: err = %v, want ErrBadConfig", err)
	}
}

// BenchmarkMultiClientRoundLearned is BenchmarkMultiClientRound with the
// depgraph predictor: the end-to-end hot path including online model
// training and the per-round L1-error comparison. Tracked by the
// benchmark-regression gate (cmd/benchjson).
func BenchmarkMultiClientRoundLearned(b *testing.B) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Rounds = 60
	cfg.Predict = predict.Config{Kind: predict.KindDepGraph}
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Access.N() != int64(cfg.Clients*cfg.Rounds) {
			b.Fatalf("short run: %d rounds", res.Access.N())
		}
	}
}

// BenchmarkMultiClientRoundShared is the unscripted inline path: the
// shared predictor with a warmed server cache, so every client plans in
// Phase B from the pooled model. Planning reuses the run's dense scratch,
// so the allocation gate (cmd/benchjson) holds the per-round plan
// allocation-free. Tracked by the benchmark-regression gate.
func BenchmarkMultiClientRoundShared(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clients = 64
	cfg.Rounds = 100
	cfg.ServerConcurrency = 8
	cfg.ServerCacheSlots = 30
	cfg.WarmServerCache = true
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	cfg.Seed = 7
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Access.N() != int64(cfg.Clients*cfg.Rounds) {
			b.Fatalf("short run: %d rounds", res.Access.N())
		}
	}
}
