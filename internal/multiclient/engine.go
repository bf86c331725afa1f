package multiclient

import (
	"fmt"

	"prefetch/internal/core"
	"prefetch/internal/eventq"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// Router places one request on a server. Implementations must be
// deterministic pure functions of their own state and the arguments —
// no wall clock, no global RNG — so runs replay bit for bit.
type Router interface {
	Name() string
	// Route picks a live server for the client's request, or reports
	// false when every server is down. states lists all servers in id
	// order, up or not.
	Route(client, page int, states []ReplicaState) (int, bool)
	// Home returns the server a client is anchored to when every
	// server is up — the one whose shared predictor observes the
	// client's accesses, whose cache the client's round-start warming
	// targets and whose congestion feedback its controller reads.
	Home(client, replicas int) int
}

// ReplicaState is one server's routing-time state: whether it is up and
// its scheduler's untraced congestion feedback.
type ReplicaState struct {
	ID       int
	Up       bool
	Feedback schedsrv.Feedback
}

// Servers describes the server side of a run. The zero Router with N = 1
// and no failures is the single-server model Run plays: every request
// goes to the one server and nothing is routed, stamped or ledgered.
type Servers struct {
	N      int    // servers (replicas), >= 1
	Router Router // places every request; required unless N == 1 without failures

	// FailEvery, when > 0, arms failure injection: each server's time
	// between recovery and its next failure is exponential with this
	// mean, drawn from the server's own derived stream. RecoverAfter is
	// the fixed repair time (> 0 when FailEvery > 0).
	FailEvery    float64
	RecoverAfter float64
}

// ServerResult is one server's view of the run. Scheduler counters are
// summed over the server's incarnations (a failure discards the
// scheduler; a recovery installs a fresh one).
type ServerResult struct {
	Replica   int // server id, 0-based
	Requests  int64
	CacheHits int64
	Busy      float64 // slot-seconds of service across incarnations

	SpecCompleted    int64
	Preemptions      int64
	PrefetchDropped  int64
	PrefetchDeferred int64
	WarmInserted     int64
	WarmHits         int64

	Failures   int
	Recoveries int
	Lost       int64   // outstanding transfers lost to this server's failures
	Downtime   float64 // simulated time spent down
}

// Outcome is everything RunServers reports: the Result (server-side
// counters summed over servers in id order), each server's own view, and
// the demand fetches failures displaced.
type Outcome struct {
	Result
	Servers  []ServerResult
	ReRoutes int64
}

// failLabel names server i's derived failure stream.
func failLabel(i int) string { return fmt.Sprintf("replica/%d/fail", i) }

// parkedDemand is a demand fetch with nowhere to go: every server was
// down when it (re-)routed. Parked demands drain in park order on the
// next recovery.
type parkedDemand struct {
	c    *client
	page int
	from int // server ordinal (1-based) the demand was displaced from, 0 if none
}

// run is one simulation in flight: the shared clock, the servers and
// clients, the scratch space the single-threaded event loop shares, and
// the routing and failure bookkeeping of a multi-server run.
type run struct {
	cfg     *Config
	clock   netsim.Clock
	tr      obs.Tracer // normalised: nil = tracing disabled
	site    *webgraph.Site
	servers []*server
	clients []*client

	// reqPool recycles the tag records riding through the schedulers,
	// and solver is the one branch-and-bound scratch space every plan
	// shares — the event loop runs clients one at a time and each plan
	// is consumed before the next Solve, so one solver is safe. The
	// planning buffers are shared the same way: scratch is the inline
	// clients' dense prediction and ranking scratch (nil when Phase A
	// scripts every client) and planBuf the filtered, capped candidates
	// each plan solves.
	reqPool eventq.FreeList[request]
	solver  *core.Solver
	scratch *planScratch
	planBuf []core.Item

	// router is nil for the single-server model; states is its reused
	// view of the servers.
	router Router
	states []ReplicaState

	// Failure injection (failEvery > 0 only).
	failEvery    float64
	recoverAfter float64
	active       int // clients still browsing; churn stops at 0
	parked       []parkedDemand
	reroutes     int64
	// lastT is the time of the last meaningful event. The clock itself
	// can run past it: a failure check scheduled beyond the workload's
	// end fires as a no-op, and counting it would inflate Elapsed.
	lastT float64
}

// RunServers plays the full simulation against sv: all clients start
// browsing at time zero, servers fail and recover on their derived
// schedules, and the event loop drains every transfer.
func RunServers(cfg Config, sv Servers) (Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return Outcome{}, err
	}
	switch {
	case sv.N < 1:
		return Outcome{}, fmt.Errorf("%w: %d servers", ErrBadConfig, sv.N)
	case !(sv.FailEvery >= 0):
		return Outcome{}, fmt.Errorf("%w: fail-every %v", ErrBadConfig, sv.FailEvery)
	case sv.FailEvery > 0 && !(sv.RecoverAfter > 0):
		return Outcome{}, fmt.Errorf("%w: failure injection needs recover-after > 0 (got %v)", ErrBadConfig, sv.RecoverAfter)
	case sv.Router == nil && (sv.N > 1 || sv.FailEvery > 0):
		return Outcome{}, fmt.Errorf("%w: %d servers with failures every %v need a router", ErrBadConfig, sv.N, sv.FailEvery)
	}
	r, err := newRun(cfg, sv)
	if err != nil {
		return Outcome{}, err
	}
	for _, c := range r.clients {
		c := c
		r.clock.Schedule(0, func() { c.startRound(0) })
	}
	// Failure schedules go on the clock after the client starts so the
	// workload's t=0 events run before any t=0 failure draw.
	if r.failEvery > 0 {
		for _, s := range r.servers {
			s.failRand = rng.Derive(cfg.Seed, failLabel(s.id))
			s.scheduleFailure(0)
		}
	}
	r.clock.Run()
	if r.failEvery == 0 {
		// No failure events on the clock, so the drain time is the last
		// meaningful event by construction.
		r.lastT = r.clock.Now()
	}
	r.resolveWasted()
	return r.outcome()
}

// newRun builds the site, the servers and the clients, and runs Phase A
// when the configuration is scriptable.
func newRun(cfg Config, sv Servers) (*run, error) {
	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:          &cfg,
		tr:           obs.Active(cfg.Tracer),
		site:         site,
		solver:       core.NewSolver(),
		router:       sv.Router,
		failEvery:    sv.FailEvery,
		recoverAfter: sv.RecoverAfter,
		active:       cfg.Clients,
	}
	r.servers = make([]*server, sv.N)
	for i := range r.servers {
		s, err := newServer(i, r)
		if err != nil {
			return nil, err
		}
		if cfg.Predict.Kind == predict.KindShared {
			// One aggregate model per server: it trains on the accesses
			// of the clients homed there and (when enabled) warms that
			// server's cache.
			s.agg = predict.NewAggregate()
			if cfg.WarmServerCache {
				s.enableWarming()
			}
		}
		r.servers[i] = s
	}
	if r.router != nil {
		r.states = make([]ReplicaState, sv.N)
	}
	// Phase A: the workers precompute every client's workload script in
	// parallel. The shared predictor must train in arrival order, so its
	// clients plan inline, into the run's dense scratch.
	var scripts *Scripts
	if Scriptable(cfg) {
		scripts, err = GenerateScripts(cfg, site)
		if err != nil {
			return nil, err
		}
	} else {
		r.scratch = newPlanScratch(len(site.Pages))
	}
	r.clients = make([]*client, cfg.Clients)
	for i := range r.clients {
		home := r.servers[0]
		if r.router != nil {
			home = r.servers[r.router.Home(i, sv.N)]
		}
		c, err := newClient(i, r, home, scripts)
		if err != nil {
			return nil, err
		}
		r.clients[i] = c
	}
	return r, nil
}

// resolveWasted emits the wasted-prefetch resolution: only after the
// event loop drains is it known which completed speculative transfers
// never served a demand. Emitted per client in id order, then issue
// order, stamped at end time — deterministic, like everything on the
// clock.
func (r *run) resolveWasted() {
	if r.tr == nil {
		return
	}
	end := r.clock.Now()
	for _, c := range r.clients {
		for _, sp := range c.specLog {
			if sp.used {
				continue
			}
			ev := obs.Ev(end, obs.KindSpecWasted, c.id)
			ev.Page = sp.page
			ev.Round = sp.round
			ev.Prob = sp.prob
			r.tr.Emit(ev)
		}
	}
}

// outcome assembles the run's results.
func (r *run) outcome() (Outcome, error) {
	cfg := r.cfg
	out := Outcome{
		Result: Result{
			Clients:     cfg.Clients,
			Concurrency: cfg.ServerConcurrency,
			Discipline:  r.servers[0].sched.Discipline(),
			Controller:  r.clients[0].ctrl.Name(),
			Predictor:   r.clients[0].predName,
			PerClient:   make([]ClientResult, cfg.Clients),
			Elapsed:     r.lastT,
		},
		Servers:  make([]ServerResult, len(r.servers)),
		ReRoutes: r.reroutes,
	}
	res := &out.Result
	for i, s := range r.servers {
		sr := s.result(r.lastT)
		out.Servers[i] = sr
		res.ServerBusy += sr.Busy
		res.ServerRequests += sr.Requests
		res.ServerCacheHits += sr.CacheHits
		res.SpecCompleted += sr.SpecCompleted
		res.Preemptions += sr.Preemptions
		res.PrefetchDropped += sr.PrefetchDropped
		res.PrefetchDeferred += sr.PrefetchDeferred
		res.WarmInserted += sr.WarmInserted
		res.WarmHits += sr.WarmHits
	}
	for i, c := range r.clients {
		if c.access.N() != int64(cfg.Rounds) {
			return Outcome{}, fmt.Errorf("multiclient: client %d finished %d/%d rounds", i, c.access.N(), cfg.Rounds)
		}
		res.PerClient[i] = ClientResult{
			Client:            i,
			Access:            c.access,
			DemandAccess:      c.demandAccess,
			QueueWait:         c.queueWait,
			Lambda:            c.lambdaTrace,
			L1Error:           c.l1Trace,
			PrefetchIssued:    c.prefetchIssued,
			PrefetchDropped:   c.prefetchDropped,
			PrefetchCompleted: c.prefetchCompleted,
			PrefetchUseful:    c.prefetchUseful,
			DemandFetches:     c.demandFetches,
			ZeroWaitRounds:    c.zeroWaitRounds,
		}
		res.Access.Merge(&c.access)
		res.DemandAccess.Merge(&c.demandAccess)
		res.QueueWait.Merge(&c.queueWait)
		res.Lambda.Merge(&c.lambdaTrace)
		res.L1Error.Merge(&c.l1Trace)
		res.PrefetchCompleted += c.prefetchCompleted
		res.PrefetchUseful += c.prefetchUseful
	}
	return out, nil
}

// pick runs the routing decision without tracing. Feedback reads use
// Peek — the untraced Snapshot — so routing a request does not flood the
// trace with queue_depth samples.
func (r *run) pick(client, page int) *server {
	now := r.clock.Now()
	for i, s := range r.servers {
		r.states[i] = ReplicaState{ID: s.id, Up: s.up, Feedback: s.sched.Peek(now)}
	}
	id, ok := r.router.Route(client, page, r.states)
	if !ok {
		return nil
	}
	return r.servers[id]
}

// route places a request of client c: the home server without a router,
// otherwise the router's pick (traced), or nil when every server is
// down.
func (r *run) route(c *client, page int, demand bool) *server {
	if r.router == nil {
		return c.home
	}
	s := r.pick(c.id, page)
	if s != nil && r.tr != nil {
		ev := obs.Ev(r.clock.Now(), obs.KindRoute, c.id)
		ev.Round = c.round
		ev.Page = page
		ev.Demand = demand
		ev.Replica = s.ordinal()
		r.tr.Emit(ev)
	}
	return s
}

// fetch routes and enqueues a demand fetch, parking it when every server
// is down (the next recovery drains the park queue). rerouted marks a
// demand displaced from a failed server — from is that server's ordinal,
// 0 if none — or parked during a total outage: its reroute event doubles
// as the new routing decision, so no separate route event is emitted.
func (r *run) fetch(c *client, page int, rerouted bool, from int) {
	var s *server
	if rerouted {
		s = r.pick(c.id, page)
	} else {
		s = r.route(c, page, true)
	}
	if s == nil {
		r.parked = append(r.parked, parkedDemand{c: c, page: page, from: from})
		return
	}
	if rerouted && r.tr != nil {
		ev := obs.Ev(r.clock.Now(), obs.KindReRoute, c.id)
		ev.Round = c.round
		ev.Page = page
		ev.Replica = s.ordinal()
		if from > 0 {
			ev.Note = fmt.Sprintf("from replica %d", from)
		}
		r.tr.Emit(ev)
	}
	s.enqueue(request{
		client:   c,
		page:     page,
		duration: r.site.Pages[page].Retrieval,
		demand:   true,
		round:    c.round,
	})
}

// promote tells the server holding the client's outstanding prefetch of
// page that its demand arrived, so disciplines that separate the classes
// stop treating it as deferrable speculation. A client has at most one
// outstanding transfer per page across all servers (plans skip pending
// pages and a demand for one promotes instead of fetching), and a
// scheduler that does not hold it reports false and changes nothing.
func (r *run) promote(client, page int) {
	for _, s := range r.servers {
		if s.sched.Promote(client, page) {
			return
		}
	}
}

// lost repairs one client's state after its outstanding transfer died
// with server from. A lost speculative transfer just stops being pending
// (it was the client's only outstanding transfer of the page, see
// promote); a lost transfer the client was blocked on — a demand fetch
// or a promoted prefetch — re-routes as a fresh demand.
func (r *run) lost(req request, from *server) {
	c := req.client
	c.pending[req.page] = false
	if c.waitingFor == req.page {
		r.reroutes++
		r.fetch(c, req.page, true, from.ordinal())
	}
}

// drainParked re-routes demands parked during a total outage, in park
// order. Called on every recovery; a pick can only fail again if the
// recovering server already failed at the same instant, in which case
// the demand stays parked for the next recovery.
func (r *run) drainParked() {
	if len(r.parked) == 0 {
		return
	}
	parked := r.parked
	r.parked = nil
	for _, p := range parked {
		r.fetch(p.c, p.page, true, p.from)
	}
}
