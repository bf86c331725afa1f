package multiclient

import (
	"errors"
	"fmt"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/sweep"
)

// TestStaticControllerReplaysDefault: the explicit static controller must
// replay the zero-value (pre-adaptive) configuration bit for bit under
// every scheduling discipline — the feedback loop's observation path may
// not perturb the timeline.
func TestStaticControllerReplaysDefault(t *testing.T) {
	for name, sched := range schedConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Sched = sched
			def, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindStatic}
			exp, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if def.Access.Mean() != exp.Access.Mean() || def.Access.N() != exp.Access.N() ||
				def.Elapsed != exp.Elapsed || def.ServerBusy != exp.ServerBusy ||
				def.QueueWait.Mean() != exp.QueueWait.Mean() ||
				def.SpecCompleted != exp.SpecCompleted || def.Preemptions != exp.Preemptions ||
				def.PrefetchDropped != exp.PrefetchDropped || def.PrefetchDeferred != exp.PrefetchDeferred {
				t.Errorf("explicit static diverged from default: %s vs %s", summary(def), summary(exp))
			}
			for i := range def.PerClient {
				pa, pb := def.PerClient[i], exp.PerClient[i]
				if pa.Access.Mean() != pb.Access.Mean() || pa.DemandAccess.Mean() != pb.DemandAccess.Mean() ||
					pa.PrefetchIssued != pb.PrefetchIssued || pa.QueueWait.Mean() != pb.QueueWait.Mean() {
					t.Errorf("client %d diverged under explicit static controller", i)
				}
			}
		})
	}
}

// adaptiveConfigs enumerates every controller for the replay tests.
func adaptiveConfigs() []adaptive.Config {
	var out []adaptive.Config
	for _, k := range adaptive.Kinds() {
		out = append(out, adaptive.Config{Kind: k, Lambda0: 0.05})
	}
	return out
}

// TestAdaptiveDeterminism: every controller replays bit for bit — the
// controllers are pure functions of the feedback stream, so identical
// seeds give identical runs, full λ trajectory included.
func TestAdaptiveDeterminism(t *testing.T) {
	for _, ac := range adaptiveConfigs() {
		t.Run(string(ac.Kind), func(t *testing.T) {
			cfg := testConfig()
			cfg.Clients = 6
			cfg.Adaptive = ac
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Access.Mean() != b.Access.Mean() || a.Elapsed != b.Elapsed ||
				a.ServerBusy != b.ServerBusy || a.Lambda.Mean() != b.Lambda.Mean() ||
				a.Lambda.Max() != b.Lambda.Max() || a.SpecCompleted != b.SpecCompleted {
				t.Errorf("replay diverged: %s λ=%v vs %s λ=%v", summary(a), a.Lambda.Mean(), summary(b), b.Lambda.Mean())
			}
			for i := range a.PerClient {
				pa, pb := a.PerClient[i], b.PerClient[i]
				if pa.Lambda.Mean() != pb.Lambda.Mean() || pa.Access.Mean() != pb.Access.Mean() {
					t.Errorf("client %d λ trajectory diverged", i)
				}
			}
		})
	}
}

// TestLambdaTraceRecorded: every planned round contributes one λ
// observation; static at λ0 records exactly λ0; the no-prefetch baseline
// records nothing.
func TestLambdaTraceRecorded(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindStatic, Lambda0: 0.4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != string(adaptive.KindStatic) {
		t.Errorf("Controller = %q, want static", res.Controller)
	}
	if want := int64(cfg.Clients * cfg.Rounds); res.Lambda.N() != want {
		t.Errorf("λ observations = %d, want %d (one per planned round)", res.Lambda.N(), want)
	}
	if res.Lambda.Mean() != 0.4 || res.Lambda.Max() != 0.4 {
		t.Errorf("static λ trace mean/max = %v/%v, want 0.4", res.Lambda.Mean(), res.Lambda.Max())
	}
	cfg.DisablePrefetch = true
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Lambda.N() != 0 {
		t.Errorf("no-prefetch baseline recorded %d λ observations", base.Lambda.N())
	}
}

// TestAdaptiveRespondsToCongestion: on a saturated FIFO server the AIMD
// controller must actually move λ off its floor and shed speculative
// traffic relative to static λ = 0.
func TestAdaptiveRespondsToCongestion(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 8
	static, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	aimd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if aimd.Lambda.Max() == 0 {
		t.Error("aimd λ never left zero on a saturated server")
	}
	var staticIssued, aimdIssued int64
	for i := range static.PerClient {
		staticIssued += static.PerClient[i].PrefetchIssued
		aimdIssued += aimd.PerClient[i].PrefetchIssued
	}
	if aimdIssued >= staticIssued {
		t.Errorf("aimd issued %d prefetches, static %d — congestion did not shed speculation",
			aimdIssued, staticIssued)
	}
}

// TestAdaptiveBeatsStaticUnderFIFO is the tentpole acceptance bar: at
// N=16 clients on the plain FIFO discipline, closed-loop λ control must
// cut mean demand access time by at least 2x versus the static λ = 0
// planner on the identical workload (the probe run shows ~10x, so 2x
// leaves a wide margin), and must recover most of what the priority
// discipline achieves with static λ.
func TestAdaptiveBeatsStaticUnderFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clients = 16
	cfg.Rounds = 120
	cfg.Seed = 11
	static, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	aimd, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("demand access: static %.3f, aimd %.3f (mean λ %.2f)",
		static.DemandAccess.Mean(), aimd.DemandAccess.Mean(), aimd.Lambda.Mean())
	if aimd.DemandAccess.Mean() > static.DemandAccess.Mean()/2 {
		t.Errorf("aimd demand access %.3f not at least 2x below static %.3f",
			aimd.DemandAccess.Mean(), static.DemandAccess.Mean())
	}
	// The closed loop on FIFO should land within 2x of the priority
	// discipline's demand latency (the scheduling-side fix it emulates).
	cfg.Adaptive = adaptive.Config{}
	cfg.Sched.Kind = "priority"
	prio, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("priority reference demand access: %.3f", prio.DemandAccess.Mean())
	if aimd.DemandAccess.Mean() > 2*prio.DemandAccess.Mean() {
		t.Errorf("aimd on fifo (%.3f) more than 2x behind priority discipline (%.3f)",
			aimd.DemandAccess.Mean(), prio.DemandAccess.Mean())
	}
}

// TestSweepControllers covers the controller sweep: one point per kind,
// deterministic across worker counts, static point matching a direct run.
func TestSweepControllers(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 40
	kinds := adaptive.Kinds()
	a, err := Sweep(cfg, 2, 0, true, ControllerAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(kinds) {
		t.Fatalf("got %d points, want %d", len(a), len(kinds))
	}
	for i, p := range a {
		if p.Labels[0] != string(kinds[i]) || p.Config.Adaptive.Kind != kinds[i] || p.Clients != cfg.Clients || p.Reps != 2 {
			t.Errorf("point %d = (%v, N=%d, reps=%d)", i, p.Labels, p.Clients, p.Reps)
		}
		if want := int64(cfg.Clients * cfg.Rounds * 2); p.Access.N() != want || p.Lambda.N() != want {
			t.Errorf("point %d merged %d access / %d λ observations, want %d",
				i, p.Access.N(), p.Lambda.N(), want)
		}
	}
	b, err := Sweep(cfg, 2, 1, true, ControllerAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Access.Mean() != b[i].Access.Mean() || a[i].Lambda.Mean() != b[i].Lambda.Mean() {
			t.Errorf("point %d differs across worker counts", i)
		}
	}
	// The static sweep point must agree with a direct Compare run.
	cfg.Adaptive.Kind = adaptive.KindStatic
	cmp, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := a[0].DemandAccess.Mean(); got == 0 || cmp.Prefetch.DemandAccess.N() == 0 {
		t.Fatalf("degenerate sweep point (demand access %v)", got)
	}
}

func TestSweepControllersBadAxis(t *testing.T) {
	cfg := testConfig()
	if _, err := Sweep(cfg, 1, 0, true, ControllerAxis(nil)); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 1, 0, true, ControllerAxis([]adaptive.Kind{"pid"})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown kind: err = %v, want ErrBadConfig", err)
	}
	if _, err := Sweep(cfg, 0, 0, true, ControllerAxis(adaptive.Kinds())); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
}

// TestAdaptiveBadConfigRejected: controller validation surfaces through
// the multiclient config check.
func TestAdaptiveBadConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive = adaptive.Config{Kind: "pid"}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown controller: err = %v, want ErrBadConfig", err)
	}
	cfg.Adaptive = adaptive.Config{Lambda0: -1}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative λ0: err = %v, want ErrBadConfig", err)
	}
}

// BenchmarkMultiClientRound is the N-scaling family of contended
// multiclient simulations (N clients x 10 rounds on N/4 slots, FIFO) —
// the end-to-end hot path over webgraph, SKP planning, schedsrv and the
// event queue at fleet scale. Every size is tracked by the
// benchmark-regression gate (cmd/benchjson), on allocations as well as
// time: the sharded core's contract is that per-round work stays
// allocation-free, and allocs/op is the first thing a regression moves.
func BenchmarkMultiClientRound(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Clients = n
			cfg.Rounds = 10
			cfg.ServerConcurrency = n / 4
			if cfg.ServerConcurrency < 2 {
				cfg.ServerConcurrency = 2
			}
			cfg.Seed = 7
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Access.N() != int64(cfg.Clients*cfg.Rounds) {
					b.Fatalf("short run: %d rounds", res.Access.N())
				}
			}
		})
	}
}
