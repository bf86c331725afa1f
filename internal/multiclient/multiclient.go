// Package multiclient extends the paper's single-client, single-link model
// to a shared-server setting: N concurrent browsing sessions, each an
// independent random surfer with its own SKP planner and client cache,
// contend for a server with bounded transfer concurrency and an optional
// shared server-side cache. The paper's closed forms assume the client owns
// the link; here speculative work from one user queues behind — and ahead
// of — everyone else's demand fetches, so the same prefetch policy can help
// at N=1 and hurt at N=64. The simulation reports per-client and aggregate
// access times, queueing delay, and server utilisation so the single-client
// curves can be compared against their contention-degraded counterparts.
//
// Determinism: everything runs on one netsim.Clock (FIFO tie-breaks), and
// every random stream is derived up front from one master seed via
// rng.Derive (the partitioned-RNG idiom) — client i's workload is a pure
// function of (seed, i), so runs replay bit-for-bit and adding clients
// never perturbs the workloads of existing ones.
//
// That per-client purity is what the sharded core (shard.go) exploits to
// scale a round to 10⁵–10⁶ clients. Phase A precomputes every client's
// workload script — viewing times, page trace, ranked prefetch candidates,
// prediction error — across one parallel worker per available CPU, each
// owning a contiguous client range; Phase B is the sequential event loop,
// which merges the scripts in canonical (time, client) order. No float
// crosses a worker boundary and the merge order is fixed, so results and
// decision traces are byte-identical under every GOMAXPROCS — the workers
// change wall-clock time, never a result. The CI determinism gate diffs
// metric tables and traces across GOMAXPROCS {1,8} to keep that contract
// enforced.
//
// The client and server state machines here are the only ones in the
// simulator: internal/fleet runs on them with several servers behind a
// router and a failure schedule (RunServers), and Run is the case of one
// server, no router and no failures.
package multiclient

import (
	"errors"
	"fmt"

	"prefetch/internal/adaptive"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
	"prefetch/internal/stats"
	"prefetch/internal/webgraph"
)

// ErrBadConfig reports an invalid multi-client configuration.
var ErrBadConfig = errors.New("multiclient: bad config")

// Config parameterises one multi-client simulation.
type Config struct {
	Clients int // number of concurrent browsing sessions
	Rounds  int // browsing rounds per client

	ServerConcurrency int     // simultaneous transfers the server sustains
	ServerCacheSlots  int     // shared server-side cache capacity (0 = none)
	ServerHitFactor   float64 // service-time multiplier on a server-cache hit

	ClientCacheSlots int // per-client cache capacity (0 = per-round prefetch-only)

	MeanViewing float64 // mean of the exponential viewing (reading) time
	MinViewing  float64 // truncation floor for viewing times
	FollowProb  float64 // surfer link-follow probability

	// DriftEvery makes the workload non-stationary: every DriftEvery
	// browsing rounds each client's surfer re-draws its preference vector
	// (the hot set it links toward and teleports to) from a drift RNG
	// stream derived per client — deterministic and replay-safe, and the
	// oracle prediction source stays exact across phases. 0 (the default)
	// is the stationary surfer, bit-for-bit the previous behaviour.
	DriftEvery int

	MaxCandidates   int  // cap on SKP candidate list size per round
	DisablePrefetch bool // demand-fetch only (the no-prefetch baseline)

	// Sched selects the server's scheduling discipline, shaping and
	// admission control (see internal/schedsrv). The zero value is the
	// seed's FIFO server; Sched.Concurrency is overridden by
	// ServerConcurrency.
	Sched schedsrv.Config

	// Adaptive selects each client's closed-loop λ controller (see
	// internal/adaptive): per round, the client observes server
	// congestion feedback and re-prices its speculation by solving the
	// cost-aware SKP at the controller's λ. The zero value is the static
	// λ = 0 planner — bit-for-bit the fixed-plan behaviour.
	Adaptive adaptive.Config

	// Predict selects each client's prediction source (see
	// internal/predict): the access model the SKP plans over. The zero
	// value is the oracle — the surfer's true next-page distribution,
	// bit-for-bit the pre-subsystem behaviour. Learned kinds (depgraph,
	// ppm, shared) train online on the access stream instead.
	Predict predict.Config

	// WarmServerCache lets the server pre-admit the shared prediction
	// model's top-probability pages into its own cache on a per-viewing-
	// time cadence (server-side prefetching from the aggregate access
	// stream). Requires ServerCacheSlots > 0 and Predict.Kind ==
	// predict.KindShared — the warm set is the pooled model's popularity
	// estimate.
	WarmServerCache bool

	// Tracer, when non-nil and enabled, receives the run's decision
	// trace (see internal/obs): round lifecycle, demand vs speculative
	// issue and completion, λ updates with their feedback snapshots,
	// prediction calls with L1 error, every scheduling decision, server
	// cache traffic, and the post-run wasted-prefetch resolution. The
	// default (nil) costs the hot paths one branch per emission site.
	Tracer obs.Tracer

	Site webgraph.SiteConfig // the shared site every client browses
	Seed uint64              // master seed; all streams derive from it
}

// DefaultConfig returns a contended but healthy starting point: eight
// clients on a two-transfer server over the default site.
func DefaultConfig() Config {
	return Config{
		Clients:           8,
		Rounds:            200,
		ServerConcurrency: 2,
		ServerCacheSlots:  0,
		ServerHitFactor:   0.25,
		ClientCacheSlots:  20,
		MeanViewing:       8,
		MinViewing:        1,
		FollowProb:        0.85,
		MaxCandidates:     16,
		Site:              webgraph.DefaultSiteConfig(),
		Seed:              1,
	}
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	switch {
	case cfg.Clients < 1:
		return fmt.Errorf("%w: %d clients", ErrBadConfig, cfg.Clients)
	case cfg.Rounds < 1:
		return fmt.Errorf("%w: %d rounds", ErrBadConfig, cfg.Rounds)
	case cfg.ServerConcurrency < 1:
		return fmt.Errorf("%w: server concurrency %d", ErrBadConfig, cfg.ServerConcurrency)
	case cfg.ServerCacheSlots < 0:
		return fmt.Errorf("%w: server cache slots %d", ErrBadConfig, cfg.ServerCacheSlots)
	case cfg.ServerCacheSlots > 0 && !(cfg.ServerHitFactor > 0 && cfg.ServerHitFactor <= 1):
		return fmt.Errorf("%w: server hit factor %v (need 0 < f <= 1)", ErrBadConfig, cfg.ServerHitFactor)
	case cfg.ClientCacheSlots < 0:
		return fmt.Errorf("%w: client cache slots %d", ErrBadConfig, cfg.ClientCacheSlots)
	case !(cfg.MeanViewing > 0):
		// Positive form so a NaN MeanViewing is rejected too: it would
		// otherwise slip past every comparison and degenerate the warm-
		// cache cadence (warmEvery = MeanViewing) into never/always firing.
		return fmt.Errorf("%w: mean viewing %v", ErrBadConfig, cfg.MeanViewing)
	case !(cfg.MinViewing >= 0):
		return fmt.Errorf("%w: min viewing %v", ErrBadConfig, cfg.MinViewing)
	case cfg.MaxCandidates < 1:
		return fmt.Errorf("%w: max candidates %d", ErrBadConfig, cfg.MaxCandidates)
	case cfg.DriftEvery < 0:
		return fmt.Errorf("%w: drift cadence %d rounds", ErrBadConfig, cfg.DriftEvery)
	}
	scfg := cfg.Sched
	scfg.Concurrency = cfg.ServerConcurrency
	if err := scfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := cfg.Adaptive.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := cfg.Predict.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.WarmServerCache {
		if cfg.ServerCacheSlots <= 0 {
			return fmt.Errorf("%w: cache warming needs server cache slots", ErrBadConfig)
		}
		if cfg.Predict.Kind != predict.KindShared {
			return fmt.Errorf("%w: cache warming needs the shared predictor (got %q)", ErrBadConfig, cfg.Predict.Kind)
		}
	}
	return nil
}

// ClientResult is one session's view of the run.
type ClientResult struct {
	Client            int
	Access            stats.Accumulator // per-round observed access times
	DemandAccess      stats.Accumulator // rounds that needed a network fetch
	QueueWait         stats.Accumulator // per-transfer wait for a server slot
	Lambda            stats.Accumulator // per-round controller λ (empty without prefetching)
	L1Error           stats.Accumulator // per-round prediction L1 error vs the true distribution
	PrefetchIssued    int64
	PrefetchDropped   int64 // speculative submissions refused by admission
	PrefetchCompleted int64 // speculative transfers that finished
	PrefetchUseful    int64 // completed speculative transfers that served a demand
	DemandFetches     int64
	ZeroWaitRounds    int64 // rounds answered with no waiting at all
}

// WastedPrefetchFraction returns the fraction of this client's completed
// speculative transfers whose page never served a demand access — the
// bandwidth speculation burned for nothing. 0 when nothing completed.
func (c ClientResult) WastedPrefetchFraction() float64 {
	if c.PrefetchCompleted == 0 {
		return 0
	}
	return 1 - float64(c.PrefetchUseful)/float64(c.PrefetchCompleted)
}

// Result aggregates one multi-client run.
type Result struct {
	Clients     int
	Concurrency int
	Discipline  string // scheduling discipline the server ran
	Controller  string // λ controller the clients ran
	Predictor   string // prediction source the clients planned over
	PerClient   []ClientResult

	Access       stats.Accumulator // all clients' rounds merged
	DemandAccess stats.Accumulator // all clients' fetching rounds merged
	QueueWait    stats.Accumulator // all server transfers merged
	Lambda       stats.Accumulator // all clients' per-round λ merged
	L1Error      stats.Accumulator // all clients' per-round prediction L1 errors merged

	Elapsed         float64 // simulated time until the last event
	ServerBusy      float64 // slot-seconds of service performed
	ServerRequests  int64
	ServerCacheHits int64

	SpecCompleted    int64 // transfers completed still speculative-class
	Preemptions      int64 // in-flight speculative transfers aborted
	PrefetchDropped  int64 // speculative requests dropped by admission
	PrefetchDeferred int64 // speculative requests deferred by admission

	PrefetchCompleted int64 // speculative transfers that finished, all clients
	PrefetchUseful    int64 // completed speculative transfers that served a demand

	WarmInserted int64 // pages the server pre-admitted from the shared model
	WarmHits     int64 // server-cache hits on warm-inserted pages
}

// Utilization returns the fraction of server slot-time spent serving.
func (r Result) Utilization() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.ServerBusy / (r.Elapsed * float64(r.Concurrency))
}

// HitRate returns the shared server cache hit rate over all requests.
func (r Result) HitRate() float64 {
	if r.ServerRequests == 0 {
		return 0
	}
	return float64(r.ServerCacheHits) / float64(r.ServerRequests)
}

// SpecThroughput returns completed speculative transfers per unit of
// simulated time — the bandwidth the server actually spent on speculation.
func (r Result) SpecThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.SpecCompleted) / r.Elapsed
}

// WastedPrefetchFraction returns the fraction of completed speculative
// transfers across all clients whose page never served a demand access.
func (r Result) WastedPrefetchFraction() float64 {
	if r.PrefetchCompleted == 0 {
		return 0
	}
	return 1 - float64(r.PrefetchUseful)/float64(r.PrefetchCompleted)
}

// HitRatio returns the fraction of browsing rounds answered without any
// network fetch — the client-side benefit speculation (and caching)
// actually delivered. Compared against the oracle's ratio it is the
// hit-ratio gap a learned predictor pays.
func (r Result) HitRatio() float64 {
	if r.Access.N() == 0 {
		return 0
	}
	return 1 - float64(r.DemandAccess.N())/float64(r.Access.N())
}

// clientLabel names client i's derived RNG stream.
func clientLabel(i int) string { return fmt.Sprintf("client/%d", i) }

// driftLabel names client i's derived drift stream — separate from the
// browsing stream so enabling drift re-draws hot sets without perturbing
// the pages and viewing times the client would otherwise draw, and
// per-client so one surfer's shifts never touch another's.
func driftLabel(i int) string { return fmt.Sprintf("client/%d/drift", i) }

// Run plays the full simulation: all clients start browsing at time zero
// and the event loop drains every scheduled transfer, including stale
// prefetches left over after the last round.
func Run(cfg Config) (Result, error) {
	out, err := RunServers(cfg, Servers{N: 1})
	return out.Result, err
}

// Comparison pairs a prefetching run with its no-prefetch baseline over the
// identical workload (same seed ⇒ same sites, pages, and viewing times, as
// the page trace does not depend on timing).
type Comparison struct {
	Prefetch Result
	Baseline Result
}

// Improvement returns the aggregate relative access improvement,
// (baseline − prefetch) / baseline, the multi-client analogue of the
// paper's access improvement I.
func (c Comparison) Improvement() float64 {
	base := c.Baseline.Access.Mean()
	if base <= 0 {
		return 0
	}
	return (base - c.Prefetch.Access.Mean()) / base
}

// ClientImprovement returns client i's relative access improvement.
func (c Comparison) ClientImprovement(i int) float64 {
	base := c.Baseline.PerClient[i].Access.Mean()
	if base <= 0 {
		return 0
	}
	return (base - c.Prefetch.PerClient[i].Access.Mean()) / base
}

// Compare runs cfg twice — prefetching as configured, then with prefetching
// disabled — over the identical derived workload. Only the prefetch leg
// is traced: interleaving two runs' events in one stream would make the
// trace ambiguous, and the baseline leg is the control, not the subject.
func Compare(cfg Config) (Comparison, error) {
	cfg.DisablePrefetch = false
	pre, err := Run(cfg)
	if err != nil {
		return Comparison{}, err
	}
	cfg.DisablePrefetch = true
	cfg.Tracer = nil
	base, err := Run(cfg)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Prefetch: pre, Baseline: base}, nil
}
