package multiclient

import (
	"prefetch/internal/adaptive"
	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/stats"
	"prefetch/internal/webgraph"
)

// client is one browsing session: a random surfer with its own derived RNG
// stream, an SKP planner over a pluggable prediction source (the oracle's
// true next-page distribution, or a model learned online from the access
// stream), and a private client-side cache. It runs as a callback state
// machine on the shared clock so any number of clients interleave on the
// same timeline.
type client struct {
	id     int
	run    *run
	cfg    *Config
	clock  *netsim.Clock
	site   *webgraph.Site
	surfer *webgraph.Surfer
	rand   *rng.Source

	// home anchors the parts of the model that need one server per
	// client regardless of where requests are routed: the shared
	// predictor the client trains and plans from, the cache its round
	// starts warm, and the congestion feedback its controller observes.
	home *server

	// pred is the prediction source the planner consumes. oracle marks
	// the true-distribution source, whose per-round L1 error is zero by
	// construction and therefore not recomputed.
	pred     predict.Source
	oracle   bool
	predName string

	// Scripted mode (see shard.go): when script is non-nil the client's
	// draws and predictions were precomputed by a Phase-A shard worker —
	// rand, surfer and pred are nil, table is the shared ranked candidate
	// table (stationary oracle) or nil, and state tracks the current page
	// the surfer would be on.
	script *Script
	table  [][]core.Item
	state  int

	// cache is the client's private LRU cache, embedded by value so a
	// lookup is one load away from the client; capacity 0 ⇒ per-round
	// prefetch-only semantics.
	//
	// Page-indexed per-round state (the page space is dense 0..P-1, so
	// arrays replace the seed's maps on the hot path). ready is a round
	// stamp — ready[p] == round ⇔ a prefetch of p completed this round —
	// so "clear the set" at round start is free (rounds start at 1, the
	// zero stamp never matches). pending is a plain flag with the seed's
	// map semantics.
	cache   cache.LRUSet
	ready   []int  // prefetches completed this round (no cache)
	pending []bool // pages requested as prefetches, not yet completed

	round       int
	roundsLeft  int
	waitingFor  int  // page the client is blocked on; -1 when browsing
	demandRound bool // this round needed a network fetch (shared or own)
	requestedAt float64

	// nextPage/demandFn are the one demand timer the client ever has in
	// flight, preallocated once so startRound does not close over the
	// drawn page each round.
	nextPage int
	demandFn func()

	// Closed-loop speculation control (internal/adaptive): the controller
	// maps each round's congestion feedback to the λ the plan is priced
	// at. The bookkeeping below carries the client's own observations
	// between rounds. ctrlStatic marks the static controller, whose λ
	// ignores feedback entirely: with tracing off nothing consumes the
	// congestion snapshot, so observe can skip the (pure, read-only)
	// utilisation estimate without changing a single result byte.
	ctrl           adaptive.Controller
	ctrlStatic     bool
	curLambda      float64
	lastDemandWait float64 // own demand queueing delay observed last round
	prevDropped    int64   // own admission drops at the last feedback
	prevDeferred   int64   // server-wide deferral total at the last feedback

	// tr is the run's normalised tracer (nil = disabled). specLog
	// records completed speculative transfers while tracing so the
	// post-run pass can attribute each one as useful or wasted.
	tr      obs.Tracer
	specLog []specRecord

	access            stats.Accumulator
	demandAccess      stats.Accumulator // access times of rounds that fetched
	queueWait         stats.Accumulator
	lambdaTrace       stats.Accumulator // λ used each planned round
	l1Trace           stats.Accumulator // prediction L1 error each planned round
	prefetchIssued    int64
	prefetchDropped   int64 // speculative submissions admission refused
	prefetchCompleted int64 // speculative transfers that finished
	prefetchUseful    int64 // completed speculative transfers that served a demand
	demandFetches     int64
	zeroWaitRounds    int64
}

// specRecord is one completed speculative transfer awaiting its
// useful-or-wasted resolution, with the predictor candidate
// probability that justified issuing it.
type specRecord struct {
	page  int
	round int // round the prefetch was planned in
	prob  float64
	used  bool
}

func newClient(id int, r *run, home *server, scripts *Scripts) (*client, error) {
	cfg := r.cfg
	pages := len(r.site.Pages)
	c := &client{
		id:         id,
		run:        r,
		cfg:        cfg,
		clock:      &r.clock,
		site:       r.site,
		home:       home,
		tr:         r.tr,
		ready:      make([]int, pages),
		pending:    make([]bool, pages),
		roundsLeft: cfg.Rounds,
		waitingFor: -1,
	}
	c.demandFn = func() { c.request(c.nextPage) }
	c.oracle = cfg.Predict.Kind == "" || cfg.Predict.Kind == predict.KindOracle
	if scripts != nil {
		// Scripted mode: the Phase-A shard worker already consumed this
		// client's random streams and predictor; the live client only
		// replays the script against the shared clock and servers.
		c.script = &scripts.PerClient[id]
		c.table = scripts.Table
		c.predName = scripts.PredName
	} else {
		c.rand = rng.Derive(cfg.Seed, clientLabel(id))
		c.surfer = webgraph.NewSurfer(c.rand, r.site, cfg.FollowProb)
		if cfg.DriftEvery > 0 {
			// Non-stationary mode: the hot set re-draws every DriftEvery
			// rounds (the surfer steps once per round) from a per-client
			// derived stream. The oracle hook below reads the surfer's
			// current phase, so oracle predictions stay exact across shifts.
			c.surfer.EnableDrift(rng.Derive(cfg.Seed, driftLabel(id)), cfg.DriftEvery)
		}
		pred, err := predict.New(cfg.Predict, id, c.surfer.NextDistributionFrom, home.agg)
		if err != nil {
			return nil, err
		}
		c.pred = pred
		c.predName = pred.Name()
		if !cfg.DisablePrefetch {
			// Seed the access stream with the start page so learned models
			// have the first transition's context (a no-op for the oracle).
			c.pred.Observe(c.surfer.Current())
		}
	}
	ctrl, err := adaptive.New(cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	c.ctrl = ctrl
	c.ctrlStatic = cfg.Adaptive.Kind == "" || cfg.Adaptive.Kind == adaptive.KindStatic
	c.cache.Init(cfg.ClientCacheSlots)
	return c, nil
}

// holds reports whether the page is usable without a network fetch.
func (c *client) holds(page int) bool {
	if c.cache.Cap() > 0 {
		return c.cache.Contains(page)
	}
	return c.ready[page] == c.round
}

// store keeps a completed retrieval. Without a client cache the item is
// usable only within the round that planned it (netsim.Session's
// prefetch-only semantics: a stale leftover completing later is pure waste).
// In the cache, the page carries the Speculative flag when unused is set:
// its residency is owed to a speculative transfer that no demand has used
// yet. The latest store decides the flag, and an eviction drops it with
// the page.
func (c *client) store(req request, unused bool) {
	if c.cache.Cap() == 0 {
		if req.round == c.round {
			c.ready[req.page] = c.round
		}
		return
	}
	var f cache.SlotFlag
	if unused {
		f = cache.Speculative
	}
	if slot := c.cache.Find(req.page); slot >= 0 {
		c.cache.SetFlags(slot, f)
		return
	}
	c.cache.Insert(req.page, f)
}

// startRound plans and issues this round's prefetches, draws the viewing
// time and the next page, and schedules the demand request. Leftover
// transfers from earlier rounds stay in the server queue and intrude on
// this round — the §4.4 stretch generalised to a shared link.
func (c *client) startRound(now float64) {
	if c.roundsLeft == 0 {
		// Finished browsing; failure injection stops once every client
		// has, so the run drains.
		c.run.active--
		return
	}
	// Server-side prefetching piggybacks on round starts: the warmer is
	// internally rate-limited and a no-op unless cache warming is enabled.
	c.home.maybeWarm(now)
	c.roundsLeft--
	c.round++ // advancing the round stamp implicitly clears c.ready

	var v float64
	if c.script != nil {
		v = c.script.Viewing[c.round-1]
	} else {
		v = c.rand.Exp(1 / c.cfg.MeanViewing)
		if v < c.cfg.MinViewing {
			v = c.cfg.MinViewing
		}
	}
	if c.tr != nil {
		ev := obs.Ev(now, obs.KindRoundStart, c.id)
		ev.Round = c.round
		ev.Viewing = v
		c.tr.Emit(ev)
	}

	if !c.cfg.DisablePrefetch {
		c.observe(now)
		plan := c.plan(v)
		for _, it := range plan.Items {
			c.prefetchIssued++
			if c.tr != nil {
				ev := obs.Ev(now, obs.KindSpecIssue, c.id)
				ev.Round = c.round
				ev.Page = it.ID
				ev.Prob = it.Prob
				ev.Service = it.Retrieval
				c.tr.Emit(ev)
			}
			srv := c.run.route(c, it.ID, false)
			if srv == nil || !srv.enqueue(request{
				client:   c,
				page:     it.ID,
				duration: it.Retrieval,
				round:    c.round,
				prob:     it.Prob,
			}) {
				// Admission control dropped it (or every server is down):
				// no transfer will happen, so the page must stay
				// requestable on demand.
				c.prefetchDropped++
				continue
			}
			c.pending[it.ID] = true
		}
	}

	if c.script != nil {
		c.nextPage = int(c.script.Next[c.round-1])
		c.state = c.nextPage // the page plan() will rank from next round
	} else {
		c.nextPage = c.surfer.Step()
	}
	c.clock.Schedule(now+v, c.demandFn)
}

// observe closes the feedback loop: it reads the server's congestion
// snapshot and the client's own last-round observations, and lets the
// controller set this round's λ. Feedback collection is read-only, so
// the static controller's timeline is bit-for-bit the fixed-λ planner's.
func (c *client) observe(now float64) {
	if c.ctrlStatic && c.tr == nil {
		// The static controller ignores feedback and no trace records it;
		// the snapshot read is pure, so skipping it cannot change results.
		c.curLambda = c.ctrl.Lambda(adaptive.Feedback{Round: c.round})
		c.lambdaTrace.Add(c.curLambda)
		return
	}
	snap := c.home.feedback(now)
	fb := adaptive.Feedback{
		Round:        c.round,
		Utilization:  snap.Utilization,
		QueuedDemand: snap.QueuedDemand,
		DemandDelay:  c.lastDemandWait,
		Dropped:      c.prefetchDropped - c.prevDropped,
		Deferred:     snap.DeferredTotal - c.prevDeferred,
	}
	c.prevDropped = c.prefetchDropped
	c.prevDeferred = snap.DeferredTotal
	c.curLambda = c.ctrl.Lambda(fb)
	c.lambdaTrace.Add(c.curLambda)
	if c.tr != nil {
		ev := obs.Ev(now, obs.KindLambda, c.id)
		ev.Round = c.round
		ev.Lambda = c.curLambda
		ev.Util = fb.Utilization
		ev.QueuedDemand = fb.QueuedDemand
		ev.Waited = fb.DemandDelay
		ev.Dropped = fb.Dropped
		ev.Deferred = fb.Deferred
		c.tr.Emit(ev)
	}
}

// plan solves the cost-aware SKP at the controller's current λ over the
// prediction source's candidate distribution for the current page,
// excluding pages already held or in flight. Candidates are capped at the
// MaxCandidates highest-probability pages to bound the solver's search.
// Each planned round also records the prediction's L1 error against the
// surfer's true distribution (zero by construction for the oracle, whose
// hot path skips the comparison).
func (c *client) plan(viewing float64) core.Plan {
	var (
		state int
		l1    float64
		cands []core.Item // every candidate, ranked
	)
	if c.script != nil {
		// Scripted: the full ranked candidate list was precomputed (or is
		// the shared stationary table).
		state = c.state
		if c.script.L1 != nil {
			l1 = c.script.L1[c.round-1]
		}
		if c.table != nil {
			cands = c.table[state]
		} else {
			cands = c.script.Cands[c.round-1]
		}
	} else {
		// Inline: predict and rank into the run's dense scratch, exactly
		// as a Phase-A worker would have scripted it.
		state = c.surfer.Current()
		pred := c.pred
		if c.oracle {
			pred = nil
		}
		cands, l1 = c.run.scratch.rank(c.site, c.surfer, pred, state)
	}
	c.l1Trace.Add(l1)
	// Only the timing-dependent parts — the held/in-flight filter and the
	// cap — run at plan time. Filtering a ranked list then capping equals
	// filtering, ranking and capping because the ranking key is a total
	// order independent of the filter.
	items := c.run.planBuf[:0]
	for i := range cands {
		if len(items) == c.cfg.MaxCandidates {
			break
		}
		if c.holds(cands[i].ID) || c.pending[cands[i].ID] {
			continue
		}
		items = append(items, cands[i])
	}
	c.run.planBuf = items // retain any growth for the next plan
	if c.tr != nil {
		ev := obs.Ev(c.clock.Now(), obs.KindPredictNext, c.id)
		ev.Round = c.round
		ev.Page = state
		ev.L1 = l1
		ev.Cands = len(items)
		c.tr.Emit(ev)
	}
	problem := core.Problem{Items: items, Viewing: viewing, TotalProb: 1}
	plan, _, err := c.run.solver.Solve(problem, core.Options{}.WithNetworkLambda(c.curLambda))
	if err != nil {
		// The problem is constructed valid by design; a failure here is a
		// simulator bug, not a configuration error.
		panic(err)
	}
	return plan
}

// itemSorter orders plan candidates by probability (desc) then page id,
// as a persistent sort.Interface so ranking does not allocate a closure
// or reflection swapper. IDs are unique, so the order is a total order
// and algorithm-independent.
type itemSorter struct{ items []core.Item }

func (s *itemSorter) Len() int      { return len(s.items) }
func (s *itemSorter) Swap(a, b int) { s.items[a], s.items[b] = s.items[b], s.items[a] }
func (s *itemSorter) Less(a, b int) bool {
	if s.items[a].Prob != s.items[b].Prob {
		return s.items[a].Prob > s.items[b].Prob
	}
	return s.items[a].ID < s.items[b].ID
}

// request is the demand access at the end of the viewing period. The
// accessed page is also the next item of the prediction source's training
// stream (a no-op for the oracle).
func (c *client) request(page int) {
	c.requestedAt = c.clock.Now()
	if !c.cfg.DisablePrefetch {
		if c.pred != nil {
			// Scripted clients trained their predictor during Phase A;
			// only the trace event belongs to the live timeline.
			c.pred.Observe(page)
		}
		if c.tr != nil {
			ev := obs.Ev(c.requestedAt, obs.KindPredictObserve, c.id)
			ev.Round = c.round
			ev.Page = page
			c.tr.Emit(ev)
		}
	}
	hit := false
	if c.cache.Cap() > 0 {
		if slot := c.cache.Find(page); slot >= 0 {
			hit = true
			c.cache.Touch(slot)
			if f := c.cache.Flags(slot); f&cache.Speculative != 0 {
				c.prefetchUseful++
				c.cache.SetFlags(slot, f&^cache.Speculative)
				c.markSpecUsed(page)
			}
		}
	} else if c.ready[page] == c.round {
		// Without a client cache every held page was prefetched this
		// round: the hit is speculation paying off by definition.
		hit = true
		c.prefetchUseful++
		c.markSpecUsed(page)
	}
	if hit {
		c.lastDemandWait = 0
		c.respond(0)
		return
	}
	c.waitingFor = page
	c.demandRound = true
	if c.tr != nil {
		ev := obs.Ev(c.requestedAt, obs.KindDemandIssue, c.id)
		ev.Round = c.round
		ev.Page = page
		c.tr.Emit(ev)
	}
	if c.pending[page] {
		// Already queued or in flight as a prefetch: sequential semantics,
		// the demand waits for the speculative transfer to finish — but the
		// scheduler learns the transfer is now demand-critical, so
		// class-aware disciplines stop deprioritising it. Under FIFO this
		// is a pure accounting change and reorders nothing.
		c.run.promote(c.id, page)
		return
	}
	c.demandFetches++
	c.run.fetch(c, page, false, 0)
}

// markSpecUsed resolves the latest unused speculative transfer of page
// as useful, while tracing (specLog is only kept then).
func (c *client) markSpecUsed(page int) {
	if c.tr == nil {
		return
	}
	for i := len(c.specLog) - 1; i >= 0; i-- {
		if c.specLog[i].page == page && !c.specLog[i].used {
			c.specLog[i].used = true
			ev := obs.Ev(c.clock.Now(), obs.KindSpecUseful, c.id)
			ev.Round = c.round
			ev.Page = page
			ev.Prob = c.specLog[i].prob
			c.tr.Emit(ev)
			return
		}
	}
}

// onTransferDone is the server's completion callback.
func (c *client) onTransferDone(req request, waited float64) {
	c.pending[req.page] = false
	c.queueWait.Add(waited)
	if !req.demand {
		c.prefetchCompleted++
		if c.tr != nil {
			c.specLog = append(c.specLog, specRecord{page: req.page, round: req.round, prob: req.prob})
		}
	}
	served := c.waitingFor == req.page
	c.store(req, !req.demand && !served)
	if served {
		if !req.demand {
			// A promoted prefetch finishing the demand it was promoted
			// for: the speculative transfer served a real access, so it
			// was stored as used.
			c.prefetchUseful++
			c.markSpecUsed(req.page)
		}
		c.waitingFor = -1
		c.lastDemandWait = waited
		c.respond(c.clock.Now() - c.requestedAt)
	}
}

// respond closes the round and immediately begins the next one.
func (c *client) respond(access float64) {
	c.run.lastT = c.clock.Now()
	if c.tr != nil {
		ev := obs.Ev(c.clock.Now(), obs.KindRoundEnd, c.id)
		ev.Round = c.round
		ev.Access = access
		ev.Demand = c.demandRound
		c.tr.Emit(ev)
	}
	c.access.Add(access)
	if c.demandRound {
		c.demandAccess.Add(access)
		c.demandRound = false
	}
	if access == 0 {
		c.zeroWaitRounds++
	}
	c.startRound(c.clock.Now())
}
