package fleet

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
)

// baseConfig is a small but feature-rich single-server section: shared
// predictor, warmed server cache, adaptive λ — everything the fleet has
// to carry faithfully.
func baseConfig() multiclient.Config {
	cfg := multiclient.DefaultConfig()
	cfg.Clients = 4
	cfg.Rounds = 30
	cfg.ServerCacheSlots = 8
	cfg.Seed = 7
	cfg.Predict.Kind = predict.KindShared
	cfg.WarmServerCache = true
	cfg.Adaptive.Kind = adaptive.KindAIMD
	return cfg
}

// churnConfig is a contended fleet under heavy failure injection.
func churnConfig() Config {
	cfg := Config{
		Base:         baseConfig(),
		Replicas:     3,
		Router:       KindHash,
		FailEvery:    40,
		RecoverAfter: 15,
	}
	cfg.Base.Clients = 6
	cfg.Base.Rounds = 50
	cfg.Base.ServerConcurrency = 1
	cfg.Base.Seed = 3
	return cfg
}

// stripFleet removes the fleet-only events and the replica stamps from a
// fleet trace, leaving what the single-server model would emit.
func stripFleet(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(evs))
	for _, ev := range evs {
		switch ev.Kind {
		case obs.KindRoute, obs.KindReRoute, obs.KindReplicaFail, obs.KindReplicaRecover:
			continue
		}
		ev.Replica = 0
		out = append(out, ev)
	}
	return out
}

// TestSingleReplicaMatchesMulticlient: a one-replica fleet without
// failures is the single-server model — same results, and the same
// trace once routing decisions and replica stamps are stripped.
func TestSingleReplicaMatchesMulticlient(t *testing.T) {
	mcCfg := baseConfig()
	mcTrace := &obs.Collector{}
	mcCfg.Tracer = mcTrace
	want, err := multiclient.Run(mcCfg)
	if err != nil {
		t.Fatal(err)
	}

	flCfg := Config{Base: baseConfig(), Replicas: 1, Router: KindRoundRobin}
	flTrace := &obs.Collector{}
	flCfg.Base.Tracer = flTrace
	got, err := Run(flCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.PerClient, want.PerClient) {
		t.Error("per-client results diverge from the single-server model")
	}
	if got.Access != want.Access || got.DemandAccess != want.DemandAccess ||
		got.QueueWait != want.QueueWait || got.Lambda != want.Lambda || got.L1Error != want.L1Error {
		t.Error("aggregate accumulators diverge from the single-server model")
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("Elapsed = %v, want %v", got.Elapsed, want.Elapsed)
	}
	if got.ServerBusy != want.ServerBusy || got.ServerRequests != want.ServerRequests ||
		got.ServerCacheHits != want.ServerCacheHits {
		t.Error("server counters diverge from the single-server model")
	}
	if got.SpecCompleted != want.SpecCompleted || got.Preemptions != want.Preemptions ||
		got.PrefetchDropped != want.PrefetchDropped || got.PrefetchDeferred != want.PrefetchDeferred ||
		got.PrefetchCompleted != want.PrefetchCompleted || got.PrefetchUseful != want.PrefetchUseful ||
		got.WarmInserted != want.WarmInserted || got.WarmHits != want.WarmHits {
		t.Error("speculation counters diverge from the single-server model")
	}
	if got.Failures != 0 || got.ReRoutes != 0 || got.LostTransfers != 0 || got.Downtime != 0 {
		t.Errorf("failure metrics non-zero without injection: %+v", got)
	}

	gotEvs := stripFleet(flTrace.Events)
	if len(gotEvs) != len(mcTrace.Events) {
		t.Fatalf("stripped fleet trace has %d events, single-server %d", len(gotEvs), len(mcTrace.Events))
	}
	for i := range gotEvs {
		if gotEvs[i] != mcTrace.Events[i] {
			t.Fatalf("trace diverges at event %d:\n fleet: %+v\n single: %+v", i, gotEvs[i], mcTrace.Events[i])
		}
	}
}

// TestScriptedSingleReplicaMatchesMulticlient: the scripted (sharded
// Phase-A) fleet session inherits the multiclient timeline too — the
// shared-predictor baseConfig above exercises the inline path, so this
// covers scriptable shapes: the stationary oracle, drift, and a learned
// model.
func TestScriptedSingleReplicaMatchesMulticlient(t *testing.T) {
	shapes := map[string]func(*multiclient.Config){
		"oracle": func(cfg *multiclient.Config) { cfg.Predict = predict.Config{} },
		"drift":  func(cfg *multiclient.Config) { cfg.Predict = predict.Config{}; cfg.DriftEvery = 7 },
		"learned": func(cfg *multiclient.Config) {
			cfg.Predict = predict.Config{Kind: predict.KindPPM, ColdStart: predict.FallbackUniform}
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			mcCfg := baseConfig()
			mcCfg.WarmServerCache = false // warming needs the shared predictor
			shape(&mcCfg)
			if !multiclient.Scriptable(mcCfg) {
				t.Fatalf("config unexpectedly not scriptable")
			}
			mcTrace := &obs.Collector{}
			mcCfg.Tracer = mcTrace
			want, err := multiclient.Run(mcCfg)
			if err != nil {
				t.Fatal(err)
			}

			flCfg := Config{Base: baseConfig(), Replicas: 1, Router: KindRoundRobin}
			flCfg.Base.WarmServerCache = false
			shape(&flCfg.Base)
			flTrace := &obs.Collector{}
			flCfg.Base.Tracer = flTrace
			got, err := Run(flCfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.PerClient, want.PerClient) {
				t.Error("per-client results diverge from the single-server model")
			}
			if got.Predictor != want.Predictor {
				t.Errorf("Predictor = %q, want %q", got.Predictor, want.Predictor)
			}
			gotEvs := stripFleet(flTrace.Events)
			if len(gotEvs) != len(mcTrace.Events) {
				t.Fatalf("stripped fleet trace has %d events, single-server %d", len(gotEvs), len(mcTrace.Events))
			}
			for i := range gotEvs {
				if gotEvs[i] != mcTrace.Events[i] {
					t.Fatalf("trace diverges at event %d:\n fleet: %+v\n single: %+v", i, gotEvs[i], mcTrace.Events[i])
				}
			}
		})
	}
}

// TestFleetShardCountIndependence: the Phase-A shard worker count (one
// per GOMAXPROCS) never changes a byte of a fleet run either — even
// under replica churn, since only script generation parallelises.
func TestFleetShardCountIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) (Result, []obs.Event) {
		runtime.GOMAXPROCS(procs)
		cfg := churnConfig()
		cfg.Base.Predict = predict.Config{} // scriptable: stationary oracle
		cfg.Base.WarmServerCache = false    // warming needs the shared predictor
		tr := &obs.Collector{}
		cfg.Base.Tracer = tr
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Events
	}
	want, wantEvs := run(1)
	for _, procs := range []int{2, 4, 16} {
		got, gotEvs := run(procs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: result differs from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(gotEvs, wantEvs) {
			t.Errorf("GOMAXPROCS=%d: trace differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestRunDeterministicReplay: the same churny config replays bit for
// bit — results and trace.
func TestRunDeterministicReplay(t *testing.T) {
	run := func() (Result, []obs.Event) {
		cfg := churnConfig()
		tr := &obs.Collector{}
		cfg.Base.Tracer = tr
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Events
	}
	res1, evs1 := run()
	res2, evs2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Error("results differ between identical runs")
	}
	if !reflect.DeepEqual(evs1, evs2) {
		t.Error("traces differ between identical runs")
	}
}

// TestFailureInjection: churn actually happens, every round still
// completes, and the failure metrics are coherent with each other and
// with the trace.
func TestFailureInjection(t *testing.T) {
	cfg := churnConfig()
	tr := &obs.Collector{}
	cfg.Base.Tracer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Access.N() != int64(cfg.Base.Clients*cfg.Base.Rounds) {
		t.Fatalf("completed %d rounds, want %d", res.Access.N(), cfg.Base.Clients*cfg.Base.Rounds)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected; churn config too tame for the test")
	}
	if res.Downtime <= 0 {
		t.Error("failures without downtime")
	}
	if a := res.Availability(); !(a > 0 && a < 1) {
		t.Errorf("availability %v, want in (0,1)", a)
	}
	if res.ReRoutes == 0 {
		t.Error("no demand was displaced despite failures under contention")
	}
	if res.LostTransfers == 0 {
		t.Error("failures lost no outstanding transfers despite a standing backlog")
	}

	var sumLost, sumReq int64
	var sumDown float64
	var fails, recovers int64
	for _, rr := range res.PerReplica {
		sumLost += rr.Lost
		sumReq += rr.Requests
		sumDown += rr.Downtime
		fails += int64(rr.Failures)
		recovers += int64(rr.Recoveries)
	}
	if sumLost != res.LostTransfers || fails != res.Failures || recovers != res.Recoveries {
		t.Errorf("per-replica failure totals (%d lost, %d fails, %d recovers) disagree with the aggregate (%d, %d, %d)",
			sumLost, fails, recovers, res.LostTransfers, res.Failures, res.Recoveries)
	}
	if sumReq != res.ServerRequests {
		t.Errorf("per-replica requests sum %d != aggregate %d", sumReq, res.ServerRequests)
	}
	if math.Abs(sumDown-res.Downtime) > 1e-9 {
		t.Errorf("per-replica downtime sum %v != aggregate %v", sumDown, res.Downtime)
	}

	var failEvs, recoverEvs, routeEvs, rerouteEvs int64
	for _, ev := range tr.Events {
		if err := ev.Validate(); err != nil {
			t.Fatalf("invalid event in fleet trace: %v", err)
		}
		switch ev.Kind {
		case obs.KindReplicaFail:
			failEvs++
		case obs.KindReplicaRecover:
			recoverEvs++
		case obs.KindRoute:
			routeEvs++
			if ev.Replica < 1 || ev.Replica > cfg.Replicas {
				t.Fatalf("route event to replica %d of %d", ev.Replica, cfg.Replicas)
			}
		case obs.KindReRoute:
			rerouteEvs++
		}
	}
	if failEvs != res.Failures || recoverEvs != res.Recoveries {
		t.Errorf("trace has %d fail / %d recover events, metrics say %d / %d",
			failEvs, recoverEvs, res.Failures, res.Recoveries)
	}
	if routeEvs == 0 || rerouteEvs == 0 {
		t.Errorf("trace has %d route and %d reroute events; want both > 0", routeEvs, rerouteEvs)
	}
}

// TestRoutersDivergeUnderChurn: the three routers produce genuinely
// different timelines on the same churny workload — the experiment the
// fleet exists for.
func TestRoutersDivergeUnderChurn(t *testing.T) {
	results := map[Kind]Result{}
	for _, k := range Kinds() {
		cfg := churnConfig()
		cfg.Router = k
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		results[k] = res
	}
	if results[KindRoundRobin].Access == results[KindHash].Access &&
		results[KindRoundRobin].Access == results[KindLeastLoaded].Access {
		t.Error("all three routers produced identical access accumulators; routing is not reaching the timeline")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero replicas", func(c *Config) { c.Replicas = 0 }},
		{"nan fail-every", func(c *Config) { c.FailEvery = math.NaN() }},
		{"negative recover", func(c *Config) { c.RecoverAfter = -1 }},
		{"failures without repair", func(c *Config) { c.FailEvery = 10; c.RecoverAfter = 0 }},
		{"unknown router", func(c *Config) { c.Router = "teleport" }},
		{"bad base", func(c *Config) { c.Base.Clients = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Run accepted the config: err = %v", err)
			}
		})
	}
}

func BenchmarkFleetRound(b *testing.B) {
	cfg := churnConfig()
	cfg.Base.Tracer = nil
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Access.N() != int64(cfg.Base.Clients*cfg.Base.Rounds) {
			b.Fatalf("short run: %d rounds", res.Access.N())
		}
	}
}
