package main

import (
	"fmt"

	"prefetch/internal/adaptive"
	"prefetch/internal/fleet"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
	"prefetch/internal/stats"
)

// workload is one closed batch: a single multiclient.Run or fleet.Run at
// a time. Only config fields that survive the planned deletions are set:
// Config.Shards stays 0 (one Phase-A worker per CPU) and no Sweep*
// wrapper is used.
type workload struct {
	name string
	why  string
	// config returns the run's configuration for Config.Seed. small shrinks
	// clients and rounds for the self-test; everything else is kept.
	config func(seed uint64, small bool) multiclient.Config
	fleet  *fleetSpec // nil runs multiclient.Run
}

// fleetSpec is the fleet layer on top of the base config.
type fleetSpec struct {
	replicas     int
	router       fleet.Kind
	failEvery    float64
	recoverAfter float64
}

// subSeeds is how many simulations one benchmark seed stands for. The
// seed draws the site, and the site sets how many transfers a round
// costs (3.6 to 4.8 per client-round on contended-scale), so one
// simulation's speed swings with its seed; an invocation cycles through
// the seed's sub-seeds so its median spans several sites.
const subSeeds = 4

// subSeed is the Config.Seed of simulation k of benchmark seed seed.
func subSeed(seed uint64, k int) uint64 { return seed*subSeeds + uint64(k) }

var workloads = []*workload{
	{
		name: "contended-scale",
		why:  "large-N Phase B: 16384 clients on a 4096-slot FIFO server, scheduler completion dominates",
		config: func(seed uint64, small bool) multiclient.Config {
			cfg := multiclient.DefaultConfig()
			cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 16384, 10, 4096
			if small {
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 256, 4, 64
			}
			cfg.Sched = schedsrv.Config{Kind: schedsrv.KindFIFO}
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindStatic}
			cfg.Predict = predict.Config{Kind: predict.KindOracle}
			cfg.ClientCacheSlots = 20
			cfg.ServerCacheSlots = 0
			cfg.Seed = seed
			return cfg
		},
	},
	{
		name: "learned-drift",
		why:  "Phase A dominates: PPM-2 predictors over drifting surfers, AIMD control, preemptive priority server",
		config: func(seed uint64, small bool) multiclient.Config {
			cfg := multiclient.DefaultConfig()
			cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 512, 400, 64
			if small {
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 32, 60, 8
			}
			cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
			cfg.Predict = predict.Config{Kind: predict.KindPPM, Order: 2}
			cfg.ServerCacheSlots = 64
			cfg.DriftEvery = 100
			cfg.Seed = seed
			return cfg
		},
	},
	{
		name: "fleet-shared",
		why:  "unscripted inline path: a shared predictor forces planning into Phase B, plus routing and failover",
		config: func(seed uint64, small bool) multiclient.Config {
			cfg := multiclient.DefaultConfig()
			cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 256, 400, 16
			if small {
				cfg.Clients, cfg.Rounds, cfg.ServerConcurrency = 24, 60, 4
			}
			cfg.ServerCacheSlots = 64
			cfg.WarmServerCache = true
			cfg.Predict = predict.Config{Kind: predict.KindShared}
			cfg.Adaptive = adaptive.Config{Kind: adaptive.KindTargetUtil}
			cfg.Seed = seed
			return cfg
		},
		fleet: &fleetSpec{replicas: 3, router: fleet.KindHash, failEvery: 2000, recoverAfter: 100},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run plays one simulation through the public entry point.
func (w *workload) run(cfg multiclient.Config, tr obs.Tracer) (any, error) {
	cfg.Tracer = tr
	if w.fleet == nil {
		res, err := multiclient.Run(cfg)
		return res, err
	}
	res, err := fleet.Run(fleet.Config{
		Base:         cfg,
		Replicas:     w.fleet.replicas,
		Router:       w.fleet.router,
		FailEvery:    w.fleet.failEvery,
		RecoverAfter: w.fleet.recoverAfter,
	})
	return res, err
}

// summary is the part of a Result the benchmark reads: the traced
// pass's statistics and the conservation checks of every run.
type summary struct {
	access, demandAccess, l1 stats.Accumulator

	perClient                        []multiclient.ClientResult
	prefetchCompleted, useful        int64
	serverRequests, serverHits       int64
	hitRatio, utilization, serverHit float64
}

func summarize(res any) summary {
	switch r := res.(type) {
	case multiclient.Result:
		return summary{access: r.Access, demandAccess: r.DemandAccess, l1: r.L1Error,
			perClient: r.PerClient, prefetchCompleted: r.PrefetchCompleted, useful: r.PrefetchUseful,
			serverRequests: r.ServerRequests, serverHits: r.ServerCacheHits,
			hitRatio: r.HitRatio(), utilization: r.Utilization(), serverHit: r.HitRate()}
	case fleet.Result:
		return summary{access: r.Access, demandAccess: r.DemandAccess, l1: r.L1Error,
			perClient: r.PerClient, prefetchCompleted: r.PrefetchCompleted, useful: r.PrefetchUseful,
			serverRequests: r.ServerRequests, serverHits: r.ServerCacheHits,
			hitRatio: r.HitRatio(), utilization: r.Utilization(), serverHit: r.HitRate()}
	}
	panic(fmt.Sprintf("perfbench: unexpected result type %T", res))
}

// conserved checks laws every correct run obeys whatever its seed:
// every client played every round, prefetch and cache outcomes never
// exceed their attempts, per-client counts sum to the aggregates, and
// utilisation is a fraction.
func conserved(res any, cfg multiclient.Config) error {
	s := summarize(res)
	var completed, useful int64
	for i, c := range s.perClient {
		if c.Client != i || c.Access.N() != int64(cfg.Rounds) || c.PrefetchUseful > c.PrefetchCompleted {
			return fmt.Errorf("client %d: id %d, %d rounds, %d useful of %d completed prefetches",
				i, c.Client, c.Access.N(), c.PrefetchUseful, c.PrefetchCompleted)
		}
		completed += c.PrefetchCompleted
		useful += c.PrefetchUseful
	}
	switch {
	case len(s.perClient) != cfg.Clients || s.access.N() != int64(cfg.Clients)*int64(cfg.Rounds):
		return fmt.Errorf("%d clients, %d rounds in all", len(s.perClient), s.access.N())
	case s.demandAccess.N() > s.access.N():
		return fmt.Errorf("%d demand rounds of %d", s.demandAccess.N(), s.access.N())
	case completed != s.prefetchCompleted || useful != s.useful:
		return fmt.Errorf("per-client prefetches %d/%d, aggregate %d/%d", useful, completed, s.useful, s.prefetchCompleted)
	case s.serverHits > s.serverRequests:
		return fmt.Errorf("%d server cache hits of %d requests", s.serverHits, s.serverRequests)
	case !(s.utilization >= 0 && s.utilization <= 1+1e-9):
		return fmt.Errorf("utilization %v", s.utilization)
	}
	return nil
}
