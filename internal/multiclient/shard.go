package multiclient

// Sharded script generation: the parallel core that scales a multiclient
// round to 10⁵–10⁶ clients.
//
// The simulation splits into two phases. Phase A (this file) precomputes
// every client's workload script — viewing times, the page trace, and the
// full ranked candidate list the planner would rank each round — in one
// parallel shard worker per available CPU, each owning a contiguous block
// of client ids. Phase B (client.go / engine.go) is the sequential event
// loop: it consumes the scripts in clock order, which is exactly the
// canonical (time, client-id) merge at every server-arbitration point.
//
// Why this is bit-for-bit deterministic for ANY worker count:
// client i's random streams are derived as pure functions of (seed, i)
// (rng.Derive with the "client/i" and "client/i/drift" labels), so its
// script never depends on which worker computes it or in what order;
// workers write disjoint slice elements and share only the immutable
// site; and everything order-sensitive — server queueing, admission,
// adaptive-λ feedback, cache state — stays in Phase B on the one clock.
// The worker count only changes wall-clock time, never a single byte of
// results or decision traces; the determinism gate (shard_test.go, CI)
// diffs GOMAXPROCS ∈ {1,8} to hold the line.
//
// What can be scripted: every per-client prediction source (oracle,
// depgraph, ppm, ppm-escape, decay, mixture — their training stream is
// the client's own page trace, already fixed by the seed). The one
// exception is predict.KindShared, whose aggregate model couples clients
// through arrival order; they plan inline through planScratch.rank too.

import (
	"runtime"
	"sort"
	"sync"

	"prefetch/internal/core"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// Script is one client's precomputed workload: everything the browsing
// model would draw or predict during the run, indexed by round.
type Script struct {
	Viewing []float64 // clamped viewing time per round
	Next    []int32   // demand page per round (state of round r+1)
	L1      []float64 // per-round prediction L1 error; nil ⇒ zero (oracle)
	// Cands is the full ranked candidate list per round (probability
	// descending, page id ascending, zero-probability pages excluded),
	// before the held/in-flight filter and the MaxCandidates cap — both
	// of those depend on timing and are applied at plan time in Phase B.
	// nil when the shared Table serves all rounds (stationary oracle).
	Cands [][]core.Item
}

// Scripts is the Phase-A output for a whole run.
type Scripts struct {
	PerClient []Script
	// Table is the shared ranked candidate table, indexed by current
	// page — the stationary oracle's distribution is a pure function of
	// (site, followProb), so one table serves every client and round.
	// nil unless the run is a stationary-oracle run with prefetching.
	Table [][]core.Item
	// PredName is the prediction source's reported name, so Phase B can
	// label results without instantiating a predictor per client.
	PredName string
}

// scriptingDisabled forces the inline (unscripted) client even for
// scriptable configurations. Test hook: the equivalence tests run both
// paths over identical configurations and diff results and traces.
var scriptingDisabled bool

// Scriptable reports whether the configured run can be precomputed by
// shard workers: every prediction source except the shared aggregate,
// whose training stream interleaves clients in arrival order.
func Scriptable(cfg Config) bool {
	//lint:allow validatecfg pure predicate over one field; Run and fleet validate before executing
	return !scriptingDisabled && cfg.Predict.Kind != predict.KindShared
}

// stationaryOracle reports whether one shared ranked table can serve
// every plan: the oracle over a drift-free surfer.
func stationaryOracle(cfg Config) bool {
	return cfg.DriftEvery == 0 &&
		(cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle)
}

// GenerateScripts runs Phase A: one parallel worker per available CPU
// (GOMAXPROCS, at most one per client) scripts a disjoint client-id
// block. site is the generated site the run browses.
func GenerateScripts(cfg Config, site *webgraph.Site) (*Scripts, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := &Scripts{PerClient: make([]Script, cfg.Clients)}
	// Probe the predictor once for its reported name (and to surface
	// construction errors deterministically, before any fan-out).
	probe, err := predict.New(cfg.Predict, 0, func(int) map[int]float64 { return nil }, nil)
	if err != nil {
		return nil, err
	}
	sc.PredName = probe.Name()
	if !cfg.DisablePrefetch && stationaryOracle(cfg) {
		sc.Table = buildRankedTable(site, cfg.FollowProb)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Clients {
		workers = cfg.Clients
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := cfg.Clients * w / workers
		hi := cfg.Clients * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			scratch := newPlanScratch(len(site.Pages))
			for i := lo; i < hi; i++ {
				if err := generateScript(&cfg, site, i, &sc.PerClient[i], sc.Table != nil, scratch); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// planScratch is the dense scratch of one planner — a Phase-A worker,
// or the run for its inline clients — reused every round: the
// page-indexed predicted and true next-page distributions and their
// ranked candidates. Planning through it builds no map and allocates
// nothing per round, so the inline path only adds the work Phase A
// would have spread over the workers: at N=4096 × 10 rounds (2-vCPU
// Xeon) an inline shared-predictor run takes 0.28 s and 41 MB against
// the scripted oracle's 0.22 s and 42 MB (1.2 s and 554 MB when it
// planned through maps).
type planScratch struct {
	dist, truth []float64
	ranked      []core.Item
	sorter      itemSorter
}

func newPlanScratch(pages int) *planScratch {
	return &planScratch{dist: make([]float64, pages), truth: make([]float64, pages)}
}

// rank ranks every candidate of a round planned from state, with the
// prediction's L1 error against the surfer's true distribution. A nil
// pred is the oracle: the candidates are the true distribution and the
// error is zero by construction, so it is not computed. The returned
// slice is the scratch's storage, valid until the next rank.
func (s *planScratch) rank(site *webgraph.Site, surfer *webgraph.Surfer, pred predict.Source, state int) ([]core.Item, float64) {
	var l1 float64
	if pred == nil {
		surfer.NextDistributionInto(state, s.dist)
	} else {
		predict.NextInto(pred, state, s.dist)
		surfer.NextDistributionInto(state, s.truth)
		l1 = predict.L1Dense(s.dist, s.truth)
	}
	s.ranked = rankInto(s.ranked, s.dist, site, &s.sorter)
	return s.ranked, l1
}

// generateScript replays client id's browsing model round by round, in
// exactly the draw order of the live client: the viewing Exp draw from
// the client stream, the page step from the surfer's split stream, and —
// for learned predictors — the Next/Observe alternation the planner and
// the demand path would perform. No timing enters anywhere, which is the
// whole reason the replay is exact.
func generateScript(cfg *Config, site *webgraph.Site, id int, out *Script, tabled bool, sc *planScratch) error {
	rand := rng.Derive(cfg.Seed, clientLabel(id))
	surfer := webgraph.NewSurfer(rand, site, cfg.FollowProb)
	if cfg.DriftEvery > 0 {
		surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(id)), cfg.DriftEvery)
	}
	oracle := cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle
	var pred predict.Source
	if !cfg.DisablePrefetch && !oracle {
		p, err := predict.New(cfg.Predict, id, surfer.NextDistributionFrom, nil)
		if err != nil {
			return err
		}
		pred = p
		pred.Observe(surfer.Current())
	}
	needCands := !cfg.DisablePrefetch && !tabled
	out.Viewing = make([]float64, cfg.Rounds)
	out.Next = make([]int32, cfg.Rounds)
	if needCands {
		out.Cands = make([][]core.Item, cfg.Rounds)
		if !oracle {
			out.L1 = make([]float64, cfg.Rounds)
		}
	}
	for r := 0; r < cfg.Rounds; r++ {
		state := surfer.Current()
		if needCands {
			ranked, l1 := sc.rank(site, surfer, pred, state)
			out.Cands[r] = append(make([]core.Item, 0, len(ranked)), ranked...)
			if out.L1 != nil {
				out.L1[r] = l1
			}
		}
		v := rand.Exp(1 / cfg.MeanViewing)
		if v < cfg.MinViewing {
			v = cfg.MinViewing
		}
		out.Viewing[r] = v
		next := surfer.Step()
		out.Next[r] = int32(next)
		if pred != nil {
			pred.Observe(next)
		}
	}
	return nil
}

// buildRankedTable ranks the stationary oracle's candidate list for every
// possible current page. ~pages² items total — hundreds of KB for the
// default site — shared read-only by every client and shard.
func buildRankedTable(site *webgraph.Site, followProb float64) [][]core.Item {
	table := make([][]core.Item, len(site.Pages))
	probs := make([]float64, len(site.Pages))
	var sorter itemSorter
	for p := range site.Pages {
		site.NextDistributionInto(p, followProb, probs)
		table[p] = rankInto(make([]core.Item, 0, len(probs)), probs, site, &sorter)
	}
	return table
}

// rankInto converts a page-indexed distribution into the ranked candidate
// form plan() consumes, reusing dst's storage: positive-probability pages
// only, probability descending with page id breaking ties. The key is a
// total order (ids are unique), so the result is independent of the sort
// algorithm.
func rankInto(dst []core.Item, probs []float64, site *webgraph.Site, s *itemSorter) []core.Item {
	items := dst[:0]
	for page, prob := range probs {
		if prob > 0 {
			items = append(items, core.Item{ID: page, Prob: prob, Retrieval: site.Pages[page].Retrieval})
		}
	}
	s.items = items
	sort.Sort(s)
	s.items = nil
	return items
}
