package multiclient

import (
	"fmt"
	"math"

	"prefetch/internal/cache"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
)

// request is one retrieval submitted to a server, demand or speculative,
// tagged with the client round that issued it so stale prefetch
// completions can be recognised. It rides through the scheduling
// subsystem as the opaque Tag of a schedsrv.Request — as a pooled
// pointer, so tagging does not box a fresh copy per submission. The node
// is recycled when the transfer's lifecycle ends (completion callback
// done, or refused by admission) — under a failure schedule only once the
// server's outstanding ledger lets go of it.
type request struct {
	client   *client
	page     int
	duration float64 // origin service time (before any server-cache hit)
	demand   bool
	done     bool // completed; the ledger recycles it on its next compaction
	round    int
	prob     float64 // plan-time candidate probability (speculative only)
}

// server is one of the run's servers: the bottleneck every request
// routed to it contends for. It owns the storage side — the optional
// server-side cache that shortens the service of pages it holds, and the
// cache warmer — and delegates every queueing, ordering, shaping and
// admission decision to a schedsrv.Scheduler, whose discipline is chosen
// by Config.Sched. The seed behaviour (one FIFO queue over `concurrency`
// slots, demand and prefetch traffic indistinguishable) is
// schedsrv.KindFIFO.
//
// Under a failure schedule a server also fails and recovers: a failure
// loses the scheduler backlog, every in-flight transfer and the cache; a
// recovery installs a fresh scheduler and a cold cache. The aggregate
// predictor deliberately lives outside the fail/recover cycle: it models
// durable popularity state kept off the serving path.
type server struct {
	id  int
	run *run

	sched *schedsrv.Scheduler
	cache *cache.Cache // nil ⇒ no server cache (or down)
	tr    obs.Tracer   // replica-stamped in routed runs; nil = disabled

	served    int64
	cacheHits int64

	// Server-side prefetching (Config.WarmServerCache): the warmer
	// pre-admits this server's aggregate model's top-probability pages
	// into the cache on a per-viewing-time cadence, so population-hot
	// pages are fast before any client's traffic demands them.
	agg          *predict.Aggregate
	warmEvery    float64      // minimum simulated time between warm passes
	warmedAt     float64      // time of the last warm pass
	warmPages    map[int]bool // resident pages placed by the warmer, not yet evicted
	warmInserted int64
	warmHits     int64

	// Failure state. ledger holds every accepted transfer in issue order,
	// so a failure can enumerate what it lost; ledgerDone counts its
	// completed entries, dropped (and recycled) in batches.
	up         bool
	failRand   *rng.Source
	ledger     []*request
	ledgerDone int
	downSince  float64
	downtime   float64
	fails      int
	recovers   int
	lost       int64

	// Scheduler counters folded across incarnations. folded marks that
	// the current scheduler's counters are already in the accumulators
	// (it failed and nothing replaced it yet).
	accBusy                                      float64
	accSpec, accPreempt, accDropped, accDeferred int64
	folded                                       bool
}

// replicaTracer stamps every event a server's machinery emits with the
// server's 1-based ordinal, so one routed trace can be rolled up per
// replica. Events already stamped (none today) are left alone.
type replicaTracer struct {
	inner obs.Tracer
	id    int // 0-based server id
}

func (t replicaTracer) Enabled() bool { return true }

func (t replicaTracer) Emit(ev obs.Event) {
	if ev.Replica == 0 {
		ev.Replica = t.id + 1
	}
	t.inner.Emit(ev)
}

func newServer(id int, r *run) (*server, error) {
	s := &server{id: id, run: r, tr: r.tr, up: true}
	if r.router != nil && r.tr != nil {
		s.tr = replicaTracer{inner: r.tr, id: id}
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// ordinal is the server's 1-based id, the form pending pages and trace
// stamps use (0 means none).
func (s *server) ordinal() int { return s.id + 1 }

// build installs a fresh scheduler and (when configured) a fresh empty
// cache — the state one incarnation of the server owns.
func (s *server) build() error {
	cfg := s.run.cfg
	scfg := cfg.Sched
	scfg.Concurrency = cfg.ServerConcurrency
	sched, err := schedsrv.New(&s.run.clock, scfg)
	if err != nil {
		return err
	}
	sched.Tracer = s.tr
	sched.ServiceTime = s.serviceTime
	sched.Done = s.done
	s.sched = sched
	s.cache = nil
	if cfg.ServerCacheSlots > 0 {
		c, err := cache.New(cfg.ServerCacheSlots)
		if err != nil {
			return err
		}
		s.cache = c
	}
	return nil
}

// enqueue submits a request to the scheduling subsystem. It reports false
// when admission control dropped a speculative request: the transfer will
// never happen and no completion callback will fire. The tag node is
// recycled immediately on a drop (the scheduler has already detached it)
// and otherwise lives until done (or a failure) releases it.
func (s *server) enqueue(r request) bool {
	rq := s.run.reqPool.Get()
	*rq = r
	if !s.sched.Submit(schedsrv.Request{
		Client:  r.client.id,
		Page:    r.page,
		Service: r.duration,
		Demand:  r.demand,
		Tag:     rq,
	}) {
		*rq = request{} // drop the client pointer before the pool keeps the node
		s.run.reqPool.Put(rq)
		return false
	}
	if s.run.failEvery > 0 {
		s.ledger = append(s.ledger, rq)
	}
	return true
}

// feedback is the congestion snapshot adaptive clients observe. The
// cumulative counters span incarnations, so a controller watching
// deferral deltas never sees them jump backwards after a recovery.
// Reading it never mutates the scheduler.
func (s *server) feedback(now float64) schedsrv.Feedback {
	fb := s.sched.Snapshot(now)
	if s.folded {
		// Down server: the current (failed) scheduler's totals are
		// already inside the accumulators — replacing instead of adding
		// avoids counting them twice.
		fb.DroppedTotal = s.accDropped
		fb.DeferredTotal = s.accDeferred
		fb.PreemptionsTotal = s.accPreempt
	} else {
		fb.DroppedTotal += s.accDropped
		fb.DeferredTotal += s.accDeferred
		fb.PreemptionsTotal += s.accPreempt
	}
	return fb
}

// serviceTime is the scheduler's service-start hook: a server-cache hit
// means the page is already at the server, so only the ServerHitFactor
// fraction of the origin time is spent. Preemption restarts re-resolve
// the cache (the second attempt's timing is real) but count as neither a
// new request nor a new hit — served and cacheHits count logical
// requests.
func (s *server) serviceTime(r *schedsrv.Request) float64 {
	first := r.Attempt() == 1
	if first {
		s.served++
	}
	service := r.Service
	if s.cache != nil && s.cache.Contains(r.Page) {
		s.cache.RecordAccess(r.Page)
		service *= s.run.cfg.ServerHitFactor
		if first {
			s.cacheHits++
			warm := s.warmPages[r.Page]
			if warm {
				s.warmHits++
			}
			if s.tr != nil {
				ev := obs.Ev(s.run.clock.Now(), obs.KindCacheHit, r.Client)
				ev.Page = r.Page
				if warm {
					ev.Note = "warm"
				}
				s.tr.Emit(ev)
			}
		}
	}
	return service
}

// done is the scheduler's completion callback. The transfer_done event
// carries the issue class (req.demand), not the scheduler's possibly
// promoted class — attribution follows why the transfer was requested.
func (s *server) done(r *schedsrv.Request, service, waited float64) {
	req := r.Tag.(*request)
	now := s.run.clock.Now()
	if s.tr != nil {
		ev := obs.Ev(now, obs.KindTransferDone, req.client.id)
		ev.Round = req.round
		ev.Page = req.page
		ev.Demand = req.demand
		ev.Service = service
		ev.Waited = waited
		s.tr.Emit(ev)
	}
	if s.cache != nil {
		s.insertCache(req.page, req.duration)
	}
	s.run.lastT = now
	req.client.onTransferDone(*req, waited)
	if s.run.failEvery > 0 {
		req.done = true
		s.ledgerDone++
		if len(s.ledger) >= 64 && s.ledgerDone*2 >= len(s.ledger) {
			s.compactLedger()
		}
		return
	}
	*req = request{} // drop the client pointer before the pool keeps the node
	s.run.reqPool.Put(req)
}

// compactLedger drops the completed entries from the outstanding ledger,
// keeping issue order, and recycles their nodes.
func (s *server) compactLedger() {
	live := s.ledger[:0]
	for _, req := range s.ledger {
		if !req.done {
			live = append(live, req)
			continue
		}
		*req = request{}
		s.run.reqPool.Put(req)
	}
	for i := len(live); i < len(s.ledger); i++ {
		s.ledger[i] = nil
	}
	s.ledger = live
	s.ledgerDone = 0
}

// enableWarming arms the server-side prefetcher from the server's
// aggregate model; the warm cadence is one mean viewing time. The run
// enables it only when Config.WarmServerCache is set (Validate guarantees
// the cache and the shared predictor exist then).
func (s *server) enableWarming() {
	// maybeWarm fires whenever now >= warmedAt+warmEvery, so a zero (or
	// NaN) cadence would degenerate into warming on every event (or
	// never). Config.Validate rejects such MeanViewing values; a config
	// path that bypasses it is a simulator bug.
	mean := s.run.cfg.MeanViewing
	if !(mean > 0) {
		panic(fmt.Sprintf("multiclient: warm cadence %v (need > 0; config not validated?)", mean))
	}
	s.warmEvery = mean
	s.warmedAt = math.Inf(-1)
	s.warmPages = map[int]bool{}
}

// maybeWarm runs one warm pass if warming is armed, the server is up and
// the cadence has elapsed: the aggregate model's current top pages (up to
// the cache capacity) are pre-admitted, evicting an LRU victim only when
// the victim is strictly colder in the pooled popularity estimate — so
// warming converges on the hot set instead of thrashing against
// demand-warmed entries.
func (s *server) maybeWarm(now float64) {
	if s.warmPages == nil || !s.up || now < s.warmedAt+s.warmEvery {
		return
	}
	s.warmedAt = now
	for _, page := range s.agg.TopPages(s.cache.Capacity()) {
		if s.cache.Contains(page) {
			continue
		}
		if s.cache.Free() == 0 {
			victim, ok := s.cache.Victim(cache.LRU{})
			if !ok || s.agg.Freq(victim) >= s.agg.Freq(page) {
				continue
			}
			if err := s.cache.Evict(victim); err != nil {
				panic(err)
			}
			delete(s.warmPages, victim)
			s.emitCache(obs.KindCacheEvict, victim)
		}
		if err := s.cache.Insert(page, s.run.site.Pages[page].Retrieval); err != nil {
			panic(err)
		}
		s.warmPages[page] = true
		s.warmInserted++
		s.emitCache(obs.KindWarmInsert, page)
	}
}

// emitCache traces one server-cache mutation (always server-side, so
// no client attribution).
func (s *server) emitCache(kind obs.Kind, page int) {
	if s.tr == nil {
		return
	}
	ev := obs.Ev(s.run.clock.Now(), kind, obs.ServerClient)
	ev.Page = page
	s.tr.Emit(ev)
}

// insertCache caches a demand- or speculation-carried page at the server,
// keeping the warm-attribution set consistent across LRU evictions
// (deleting from a nil warmPages map is a safe no-op when warming is off).
func (s *server) insertCache(page int, retrieval float64) {
	if s.cache.Contains(page) {
		return
	}
	if victim, evicted := insertLRU(s.cache, page, retrieval); evicted {
		delete(s.warmPages, victim)
		s.emitCache(obs.KindCacheEvict, victim)
	}
	s.emitCache(obs.KindCacheInsert, page)
}

// insertLRU caches an item, evicting the least recently used entry when
// the cache is full and reporting the victim so callers can keep
// attribution state consistent. A no-op if the item is already cached.
// Eviction and insert cannot fail on a well-formed cache, so errors are
// simulator bugs.
func insertLRU(c *cache.Cache, id int, retrieval float64) (victim int, evicted bool) {
	if c.Contains(id) {
		return 0, false
	}
	if c.Free() == 0 {
		if v, ok := c.Victim(cache.LRU{}); ok {
			if err := c.Evict(v); err != nil {
				panic(err)
			}
			victim, evicted = v, true
		}
	}
	if err := c.Insert(id, retrieval); err != nil {
		panic(err)
	}
	return victim, evicted
}

// foldSched folds the current scheduler's counters into the
// cross-incarnation accumulators.
func (s *server) foldSched() {
	s.accBusy += s.sched.BusyTime()
	s.accSpec += s.sched.SpecCompleted()
	s.accPreempt += s.sched.Preemptions()
	s.accDropped += s.sched.Dropped()
	s.accDeferred += s.sched.Deferred()
}

// scheduleFailure draws this incarnation's time-to-failure and puts it
// on the clock.
func (s *server) scheduleFailure(now float64) {
	gap := s.failRand.Exp(1 / s.run.failEvery)
	s.run.clock.Schedule(now+gap, s.fail)
}

// fail destroys the server: the scheduler's backlog and in-flight
// transfers are lost, the cache empties, and every issuing client is
// repaired — pending prefetches vanish, blocked demands re-route. The
// aggregate model survives. Churn stops once the workload has finished
// (the check makes the stray post-workload failure draw a no-op, so the
// run drains).
func (s *server) fail() {
	r := s.run
	if r.active == 0 {
		return
	}
	now := r.clock.Now()
	lostNow := s.sched.Fail()
	s.foldSched()
	s.folded = true
	s.up = false
	s.downSince = now
	s.fails++
	s.lost += int64(lostNow)
	r.lastT = now

	// Everything the cache held dies with the machine; warming restarts
	// from the (surviving) aggregate after recovery.
	s.cache = nil
	if s.warmPages != nil {
		s.warmPages = map[int]bool{}
		s.warmedAt = math.Inf(-1)
	}

	outstanding := make([]request, 0, lostNow)
	for _, req := range s.ledger {
		if !req.done {
			outstanding = append(outstanding, *req)
		}
		*req = request{}
		r.reqPool.Put(req)
	}
	s.ledger = nil
	s.ledgerDone = 0
	if len(outstanding) != lostNow {
		panic(fmt.Sprintf("multiclient: server %d ledger has %d outstanding, scheduler lost %d", s.id, len(outstanding), lostNow))
	}

	if r.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaFail, obs.ServerClient)
		ev.Replica = s.ordinal()
		ev.Queued = lostNow
		r.tr.Emit(ev)
	}
	for _, req := range outstanding {
		r.lost(req, s)
	}
	r.clock.After(r.recoverAfter, s.recover)
}

// recover rebuilds the server with a fresh scheduler and a cold cache,
// drains any demands parked during a total outage, and draws the next
// failure.
func (s *server) recover() {
	r := s.run
	now := r.clock.Now()
	s.downtime += now - s.downSince
	s.recovers++
	if err := s.build(); err != nil {
		// The same configuration built the first incarnation; a failure
		// here is a simulator bug.
		panic(err)
	}
	s.folded = false
	s.up = true
	if r.active == 0 {
		// Workload already over: close the downtime window but leave
		// Elapsed and the failure schedule alone.
		return
	}
	r.lastT = now
	if r.tr != nil {
		ev := obs.Ev(now, obs.KindReplicaRecover, obs.ServerClient)
		ev.Replica = s.ordinal()
		r.tr.Emit(ev)
	}
	r.drainParked()
	s.scheduleFailure(now)
}

// result snapshots the server's totals at the end of the run.
func (s *server) result(elapsed float64) ServerResult {
	if !s.folded {
		s.foldSched()
		s.folded = true
	}
	down := s.downtime
	if !s.up && s.downSince < elapsed {
		down += elapsed - s.downSince
	}
	return ServerResult{
		Replica:          s.id,
		Requests:         s.served,
		CacheHits:        s.cacheHits,
		Busy:             s.accBusy,
		SpecCompleted:    s.accSpec,
		Preemptions:      s.accPreempt,
		PrefetchDropped:  s.accDropped,
		PrefetchDeferred: s.accDeferred,
		WarmInserted:     s.warmInserted,
		WarmHits:         s.warmHits,
		Failures:         s.fails,
		Recoveries:       s.recovers,
		Lost:             s.lost,
		Downtime:         down,
	}
}
