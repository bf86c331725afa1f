package schedsrv

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Concurrency: 1},
		{Concurrency: 2, Kind: KindPriority, Preempt: true},
		{Concurrency: 2, Kind: KindWFQ, DemandWeight: 8, SpecWeight: 1},
		{Concurrency: 2, Kind: KindShaped, Rate: 1, Burst: 4},
		{Concurrency: 2, AdmitUtil: 0.8, AdmitWindow: 25, AdmitDefer: true},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{Concurrency: 0},
		{Concurrency: 1, Kind: "lifo"},
		{Concurrency: 1, Preempt: true}, // preemption needs priority
		{Concurrency: 1, Kind: KindWFQ, DemandWeight: -1},
		{Concurrency: 1, Kind: KindShaped, Rate: -0.5},
		{Concurrency: 1, AdmitUtil: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("bad config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// synthetic workload: n clients submit interleaved demand and speculative
// requests at deterministic pseudo-random times.
type arrival struct {
	at      float64
	client  int
	page    int
	service float64
	demand  bool
}

func genArrivals(seed uint64, clients, perClient int) []arrival {
	r := rng.New(seed)
	var out []arrival
	for c := 0; c < clients; c++ {
		at := 0.0
		for i := 0; i < perClient; i++ {
			at += float64(r.Uint64()%80) / 10
			out = append(out, arrival{
				at:      at,
				client:  c,
				page:    c*perClient + i,
				service: 0.5 + float64(r.Uint64()%40)/10,
				demand:  r.Uint64()%3 == 0,
			})
		}
	}
	return out
}

// runLoad replays arrivals through a scheduler and returns it with its
// clock fully drained. The probe hook runs as its own zero-delay event
// after each completion, once the scheduler has refilled freed slots.
func runLoad(t *testing.T, cfg Config, arrivals []arrival, probe func(s *Scheduler)) *Scheduler {
	t.Helper()
	var clock netsim.Clock
	s, err := New(&clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Done = func(r *Request, service, waited float64) {
		if probe != nil {
			clock.After(0, func() { probe(s) })
		}
	}
	for _, a := range arrivals {
		a := a
		clock.Schedule(a.at, func() {
			s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
		})
	}
	clock.Run()
	return s
}

// TestWorkConservation: for the work-conserving disciplines, the server is
// never idle while requests are queued — checked after every submission
// and completion across a contended load.
func TestWorkConservation(t *testing.T) {
	for _, kind := range []Kind{KindFIFO, KindPriority, KindWFQ} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Concurrency: 2, Kind: kind}
			check := func(s *Scheduler) {
				if s.Queued() > 0 && s.InFlight() < 2 {
					t.Fatalf("%s idle slot with %d queued", kind, s.Queued())
				}
			}
			s := runLoad(t, cfg, genArrivals(5, 6, 40), check)
			if s.Queued() != 0 || s.InFlight() != 0 {
				t.Fatalf("drained scheduler still holds queued=%d inflight=%d", s.Queued(), s.InFlight())
			}
			if s.Started() != s.Completed() {
				t.Errorf("started %d != completed %d", s.Started(), s.Completed())
			}
		})
	}
}

// TestDemandPriorityInvariant: under the priority discipline a speculative
// request never starts service while a demand request is queued.
func TestDemandPriorityInvariant(t *testing.T) {
	for _, preempt := range []bool{false, true} {
		t.Run(fmt.Sprintf("preempt=%v", preempt), func(t *testing.T) {
			var clock netsim.Clock
			s, err := New(&clock, Config{Concurrency: 2, Kind: KindPriority, Preempt: preempt})
			if err != nil {
				t.Fatal(err)
			}
			s.OnStart = func(r *Request) {
				if !r.Demand && s.QueuedDemand() > 0 {
					t.Fatalf("speculative start for client %d page %d with %d demands queued",
						r.Client, r.Page, s.QueuedDemand())
				}
			}
			for _, a := range genArrivals(9, 8, 50) {
				a := a
				clock.Schedule(a.at, func() {
					s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
				})
			}
			clock.Run()
			if s.InFlight() != 0 || s.Queued() != 0 {
				t.Fatal("load did not drain")
			}
		})
	}
}

// TestPreemption: with a single slot occupied by a long speculative
// transfer, an arriving demand preempts it; without Preempt it waits.
func TestPreemption(t *testing.T) {
	run := func(preempt bool) (demandDone float64, s *Scheduler) {
		var clock netsim.Clock
		s, err := New(&clock, Config{Concurrency: 1, Kind: KindPriority, Preempt: preempt})
		if err != nil {
			t.Fatal(err)
		}
		s.Done = func(r *Request, service, waited float64) {
			if r.Demand {
				demandDone = clock.Now()
			}
		}
		clock.Schedule(0, func() {
			s.Submit(Request{Client: 0, Page: 1, Service: 100})
		})
		clock.Schedule(5, func() {
			s.Submit(Request{Client: 1, Page: 2, Service: 3, Demand: true})
		})
		clock.Run()
		return demandDone, s
	}
	withPre, s := run(true)
	if want := 8.0; withPre != want {
		t.Errorf("preempting demand finished at %v, want %v", withPre, want)
	}
	if s.Preemptions() != 1 {
		t.Errorf("preemptions = %d, want 1", s.Preemptions())
	}
	// The victim restarts from scratch after the demand: 8 + 100.
	if s.Completed() != 2 {
		t.Errorf("completed = %d, want 2 (victim must finish eventually)", s.Completed())
	}
	// Busy time counts the 5 aborted seconds plus both full services.
	if want := 5.0 + 3 + 100; math.Abs(s.BusyTime()-want) > 1e-9 {
		t.Errorf("busy time %v, want %v", s.BusyTime(), want)
	}
	withoutPre, _ := run(false)
	if want := 103.0; withoutPre != want {
		t.Errorf("non-preempting demand finished at %v, want %v", withoutPre, want)
	}
}

// TestPromotedInFlightNotPreempted: a speculative transfer promoted to
// demand while in flight must not be chosen as a preemption victim.
func TestPromotedInFlightNotPreempted(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindPriority, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 10})
	})
	clock.Schedule(1, func() {
		if !s.Promote(0, 1) {
			t.Error("Promote found nothing in flight")
		}
	})
	clock.Schedule(2, func() {
		s.Submit(Request{Client: 1, Page: 2, Service: 1, Demand: true})
	})
	clock.Run()
	if s.Preemptions() != 0 {
		t.Errorf("promoted in-flight transfer was preempted")
	}
}

// TestWFQShareError: one slot, two flows backlogged for the whole
// sampling period — client 0 all demand class (weight 3), client 1 all
// speculative class (weight 1). The service each flow receives while both
// stay backlogged must track the 3:1 weight ratio within the WFQ fairness
// bound of one maximum-size request per flow.
func TestWFQShareError(t *testing.T) {
	const (
		demandW = 3.0
		specW   = 1.0
		service = 1.0
		backlog = 400
	)
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindWFQ, DemandWeight: demandW, SpecWeight: specW})
	if err != nil {
		t.Fatal(err)
	}
	served := map[int]float64{}
	var stop bool
	s.Done = func(r *Request, sv, waited float64) {
		if !stop {
			served[r.Client] += sv
		}
	}
	clock.Schedule(0, func() {
		for i := 0; i < backlog; i++ {
			s.Submit(Request{Client: 0, Page: i, Service: service, Demand: true})
			s.Submit(Request{Client: 1, Page: backlog + i, Service: service, Demand: false})
		}
	})
	// Sample shares while both flows are still backlogged (the demand
	// flow drains first; fairness is defined over the backlogged period).
	clock.Schedule(service*backlog/2, func() {
		stop = true
		wantRatio := demandW / specW
		gotRatio := served[0] / served[1]
		// Virtual-clock WFQ is fair within one max-size request per flow.
		tol := (service/specW + service/demandW) / served[1]
		if math.Abs(gotRatio-wantRatio)/wantRatio > tol {
			t.Errorf("share ratio %v, want %v within %v (served %v vs %v)",
				gotRatio, wantRatio, tol, served[0], served[1])
		}
	})
	clock.Run()
}

// TestWFQCrossClientIsolation: with equal class weights, two clients with
// equal backlogs split one slot evenly even though one client floods
// twice as many requests (they queue, not occupy).
func TestWFQNoStarvation(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindWFQ, DemandWeight: 4, SpecWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var firstDemandDone float64
	s.Done = func(r *Request, sv, waited float64) {
		if r.Demand && firstDemandDone == 0 {
			firstDemandDone = clock.Now()
		}
	}
	clock.Schedule(0, func() {
		// Client 0 floods 100 speculative requests…
		for i := 0; i < 100; i++ {
			s.Submit(Request{Client: 0, Page: i, Service: 2})
		}
	})
	clock.Schedule(1, func() {
		// …then client 1 submits one demand. Under FIFO it would wait
		// ~200s; under WFQ its finish tag beats nearly the whole backlog.
		s.Submit(Request{Client: 1, Page: 1000, Service: 2, Demand: true})
	})
	clock.Run()
	if firstDemandDone > 10 {
		t.Errorf("demand behind speculative flood finished at %v, want early service", firstDemandDone)
	}
}

// TestShapedThrottlesSpeculation: one client's speculative backlog is
// served at its token rate, not at slot speed.
func TestShapedThrottlesSpeculation(t *testing.T) {
	const (
		rate    = 0.5
		burst   = 2.0
		service = 2.0
		n       = 10
	)
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 4, Kind: KindShaped, Rate: rate, Burst: burst})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	s.Done = func(r *Request, sv, waited float64) { last = clock.Now() }
	clock.Schedule(0, func() {
		for i := 0; i < n; i++ {
			s.Submit(Request{Client: 0, Page: i, Service: service})
		}
	})
	clock.Run()
	// The first transfer rides the full bucket; each of the other n-1
	// waits for a service-worth of tokens at rate, so the tail completes
	// near (n-1)*service/rate — far beyond the unshaped n*service/4.
	unshapedFinish := float64(n) * service / 4
	if last <= 2*unshapedFinish {
		t.Errorf("shaped tail finished at %v, suspiciously close to unshaped %v", last, unshapedFinish)
	}
	wantMin := float64(n-1) * service / rate
	if last < wantMin-1e-9 {
		t.Errorf("shaped tail finished at %v, before token-rate bound %v", last, wantMin)
	}
}

// TestShapedDemandBypass: demand traffic is never delayed by an empty
// bucket; it runs immediately and drives the bucket into debt.
func TestShapedDemandBypass(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindShaped, Rate: 0.1, Burst: 1})
	if err != nil {
		t.Fatal(err)
	}
	times := map[int]float64{}
	s.Done = func(r *Request, sv, waited float64) { times[r.Page] = clock.Now() }
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 5, Demand: true})
		s.Submit(Request{Client: 0, Page: 2, Service: 5, Demand: true})
	})
	clock.Run()
	if times[1] != 5 || times[2] != 10 {
		t.Errorf("demand completions at %v and %v, want 5 and 10 (no shaping delay)", times[1], times[2])
	}
}

// TestAdmissionDrop: once the window estimate crosses the threshold,
// speculative submissions are refused while demand passes.
func TestAdmissionDrop(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.5, AdmitWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	var specOK, demandOK bool
	clock.Schedule(0, func() {
		// Saturate the single slot for 20s.
		s.Submit(Request{Client: 0, Page: 1, Service: 20, Demand: true})
	})
	clock.Schedule(15, func() {
		if got := s.Utilization(clock.Now()); got != 1 {
			t.Errorf("utilisation = %v during saturation, want 1", got)
		}
		specOK = s.Submit(Request{Client: 1, Page: 2, Service: 1})
		demandOK = s.Submit(Request{Client: 1, Page: 3, Service: 1, Demand: true})
	})
	clock.Run()
	if specOK {
		t.Error("speculative request admitted at utilisation 1")
	}
	if !demandOK {
		t.Error("demand request rejected — admission must only gate speculation")
	}
	if s.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", s.Dropped())
	}
}

// TestAdmissionIdleAdmits: an idle server admits speculation.
func TestAdmissionIdleAdmits(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.5, AdmitWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	clock.Schedule(0, func() { ok = s.Submit(Request{Client: 0, Page: 1, Service: 1}) })
	clock.Run()
	if !ok {
		t.Error("idle server rejected a speculative request")
	}
}

// TestAdmissionDefer: deferred speculation is parked, then served once
// utilisation falls back under the threshold — never lost.
func TestAdmissionDefer(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.6, AdmitWindow: 5, AdmitDefer: true})
	if err != nil {
		t.Fatal(err)
	}
	var specDone float64
	s.Done = func(r *Request, sv, waited float64) {
		if !r.Demand {
			specDone = clock.Now()
		}
	}
	clock.Schedule(0, func() { s.Submit(Request{Client: 0, Page: 1, Service: 10, Demand: true}) })
	clock.Schedule(8, func() {
		if !s.Submit(Request{Client: 1, Page: 2, Service: 1}) {
			t.Error("defer mode must not refuse the submission")
		}
		if s.DeferredNow() != 1 {
			t.Errorf("deferred now = %d, want 1", s.DeferredNow())
		}
	})
	clock.Run()
	if specDone == 0 {
		t.Fatal("deferred speculative request never completed")
	}
	if s.Deferred() != 1 {
		t.Errorf("deferred total = %d, want 1", s.Deferred())
	}
	// It had to wait at least for the demand transfer to clear.
	if specDone < 10 {
		t.Errorf("deferred request completed at %v, before the saturating demand cleared", specDone)
	}
}

// fingerprint reduces a full run to a comparable trace.
func fingerprint(t *testing.T, cfg Config, arrivals []arrival) string {
	t.Helper()
	var clock netsim.Clock
	s, err := New(&clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	s.Done = func(r *Request, service, waited float64) {
		out += fmt.Sprintf("%d/%d@%.9f+%.9f;", r.Client, r.Page, clock.Now(), waited)
	}
	for _, a := range arrivals {
		a := a
		clock.Schedule(a.at, func() {
			s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
		})
	}
	clock.Run()
	return fmt.Sprintf("%s|busy=%.9f|n=%d|pre=%d|drop=%d", out, s.BusyTime(), s.Completed(), s.Preemptions(), s.Dropped())
}

// replayConfigs are the discipline and admission modes the replay tests
// run over replayLoad.
var replayConfigs = []Config{
	{Concurrency: 2, Kind: KindFIFO},
	{Concurrency: 2, Kind: KindPriority},
	{Concurrency: 2, Kind: KindPriority, Preempt: true},
	{Concurrency: 2, Kind: KindWFQ, DemandWeight: 4, SpecWeight: 1},
	{Concurrency: 2, Kind: KindShaped, Rate: 0.8, Burst: 4},
	{Concurrency: 2, Kind: KindFIFO, AdmitUtil: 0.7, AdmitWindow: 20},
	{Concurrency: 2, Kind: KindFIFO, AdmitUtil: 0.7, AdmitWindow: 20, AdmitDefer: true},
}

func replayLoad() []arrival { return genArrivals(77, 5, 60) }

// replayName names a replay config for its subtest.
func replayName(cfg Config) string {
	name := string(cfg.Kind)
	if cfg.Preempt {
		name += "+preempt"
	}
	if cfg.AdmitUtil > 0 {
		name += "+admit"
		if cfg.AdmitDefer {
			name += "-defer"
		}
	}
	return name
}

// TestDeterministicReplay: every discipline (and admission mode) replays
// bit-for-bit — the identical completion trace — on the identical load.
func TestDeterministicReplay(t *testing.T) {
	load := replayLoad()
	for _, cfg := range replayConfigs {
		t.Run(replayName(cfg), func(t *testing.T) {
			a := fingerprint(t, cfg, load)
			b := fingerprint(t, cfg, load)
			if a != b {
				t.Error("two identical runs produced different completion traces")
			}
		})
	}
}

// TestEveryRequestCompletes: no discipline loses work — every admitted
// request eventually reaches Done exactly once.
func TestEveryRequestCompletes(t *testing.T) {
	for _, cfg := range []Config{
		{Concurrency: 2, Kind: KindFIFO},
		{Concurrency: 2, Kind: KindPriority, Preempt: true},
		{Concurrency: 2, Kind: KindWFQ},
		{Concurrency: 2, Kind: KindShaped, Rate: 2, Burst: 8},
		{Concurrency: 2, Kind: KindFIFO, AdmitUtil: 0.6, AdmitDefer: true},
	} {
		t.Run(string(cfg.Kind), func(t *testing.T) {
			var clock netsim.Clock
			s, err := New(&clock, cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := map[int]int{}
			s.Done = func(r *Request, service, waited float64) { done[r.Page]++ }
			admitted := 0
			for _, a := range genArrivals(31, 4, 50) {
				a := a
				clock.Schedule(a.at, func() {
					if s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand}) {
						admitted++
					}
				})
			}
			clock.Run()
			if len(done) != admitted {
				t.Fatalf("%d distinct completions for %d admitted requests", len(done), admitted)
			}
			for page, n := range done {
				if n != 1 {
					t.Fatalf("page %d completed %d times", page, n)
				}
			}
		})
	}
}

// TestUtilWindow exercises the sliding-window estimator directly.
func TestUtilWindow(t *testing.T) {
	u := newUtilWindow(10, 2)
	// One slot busy over [0, 5), then idle.
	u.transition(0, 1)
	u.transition(5, 0)
	if got, want := u.estimate(5), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("estimate(5) = %v, want %v", got, want)
	}
	// At t=10 the window [0,10] holds 5 busy slot-seconds of 20 capacity.
	if got, want := u.estimate(10), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("estimate(10) = %v, want %v", got, want)
	}
	// At t=20 the busy segment has slid out entirely.
	u.transition(20, 0)
	if got := u.estimate(20); got != 0 {
		t.Errorf("estimate(20) = %v, want 0", got)
	}
	// Current in-flight work counts without a transition: both slots busy
	// over [20, 25] is half the [15, 25] window's capacity.
	u.transition(20, 2)
	if got, want := u.estimate(25), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("estimate(25) = %v, want %v", got, want)
	}
	// By t=30 the busy stretch covers the whole window.
	if got, want := u.estimate(30), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("estimate(30) = %v, want %v", got, want)
	}
}

// TestPromoteQueued: promotion pulls a queued speculative request ahead
// of other speculation under priority.
func TestPromoteQueued(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindPriority})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	s.Done = func(r *Request, sv, waited float64) { order = append(order, r.Page) }
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 5}) // occupies the slot
		s.Submit(Request{Client: 0, Page: 2, Service: 1}) // queued spec
		s.Submit(Request{Client: 1, Page: 3, Service: 1}) // queued spec
		s.Submit(Request{Client: 1, Page: 4, Service: 1}) // queued spec
	})
	clock.Schedule(1, func() {
		if !s.Promote(1, 4) {
			t.Error("Promote did not find the queued request")
		}
	})
	clock.Run()
	if len(order) != 4 || order[1] != 4 {
		t.Errorf("completion order %v, want page 4 promoted to second", order)
	}
}

// TestShapedRateBoundLongTransfers: transfers longer than the bucket
// depth become eligible on a full bucket but are charged their full
// service, so long-run speculative bandwidth still cannot exceed rate.
func TestShapedRateBoundLongTransfers(t *testing.T) {
	const (
		rate    = 0.5
		burst   = 8.0
		service = 100.0 // far beyond the bucket depth
		n       = 6
	)
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 8, Kind: KindShaped, Rate: rate, Burst: burst})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	s.Done = func(r *Request, sv, waited float64) { last = clock.Now() }
	clock.Schedule(0, func() {
		for i := 0; i < n; i++ {
			s.Submit(Request{Client: 0, Page: i, Service: service})
		}
	})
	clock.Run()
	// Full charging leaves the bucket ~service in debt after each start,
	// so successive starts are ~service/rate apart: the tail must finish
	// no earlier than the provisioned-rate schedule allows.
	wantMin := (float64(n-1)*service - burst) / rate
	if last < wantMin-1e-9 {
		t.Errorf("long-transfer tail finished at %v, before rate bound %v (rate exceeded)", last, wantMin)
	}
}

// TestPromotePreempts: promoting a queued prefetch to demand carries the
// same preemption rights as a freshly submitted demand request.
func TestPromotePreempts(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindPriority, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	var promotedDone float64
	s.Done = func(r *Request, sv, waited float64) {
		if r.Page == 2 && promotedDone == 0 {
			promotedDone = clock.Now()
		}
	}
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 100}) // occupies the slot
		s.Submit(Request{Client: 1, Page: 2, Service: 3})   // queued prefetch
	})
	clock.Schedule(5, func() {
		// Client 1 now demands page 2: the queued prefetch is promoted and
		// must abort client 0's in-flight speculative transfer.
		if !s.Promote(1, 2) {
			t.Error("Promote found nothing queued")
		}
	})
	clock.Run()
	if s.Preemptions() != 1 {
		t.Errorf("preemptions = %d, want 1 (promotion must preempt like a demand arrival)", s.Preemptions())
	}
	if want := 8.0; promotedDone != want {
		t.Errorf("promoted request finished at %v, want %v", promotedDone, want)
	}
}

// TestNegativeAdmitWindowRejected: a negative window would silently
// disable admission control, so it must fail validation.
func TestNegativeAdmitWindowRejected(t *testing.T) {
	cfg := Config{Concurrency: 1, AdmitUtil: 0.5, AdmitWindow: -10}
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative AdmitWindow: err = %v, want ErrBadConfig", err)
	}
}

// TestAttemptCounter: the ServiceTime hook sees attempt 1 on first start
// and attempt 2 on a preemption restart.
func TestAttemptCounter(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, Kind: KindPriority, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	attempts := map[int][]int{}
	s.ServiceTime = func(r *Request) float64 {
		attempts[r.Page] = append(attempts[r.Page], r.Attempt())
		return r.Service
	}
	clock.Schedule(0, func() { s.Submit(Request{Client: 0, Page: 1, Service: 50}) })
	clock.Schedule(5, func() { s.Submit(Request{Client: 1, Page: 2, Service: 1, Demand: true}) })
	clock.Run()
	if got, want := fmt.Sprint(attempts[1]), "[1 2]"; got != want {
		t.Errorf("victim attempts = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(attempts[2]), "[1]"; got != want {
		t.Errorf("demand attempts = %v, want %v", got, want)
	}
}

// TestNaNConfigRejected: NaN tunables must fail validation rather than
// slip past negative/range comparisons into tag arithmetic.
func TestNaNConfigRejected(t *testing.T) {
	nan := math.NaN()
	bad := []Config{
		{Concurrency: 1, Kind: KindWFQ, DemandWeight: nan, SpecWeight: 1},
		{Concurrency: 1, Kind: KindWFQ, DemandWeight: 4, SpecWeight: nan},
		{Concurrency: 1, Kind: KindShaped, Rate: nan, Burst: 4},
		{Concurrency: 1, Kind: KindShaped, Rate: 1, Burst: nan},
		{Concurrency: 1, AdmitUtil: nan},
		{Concurrency: 1, AdmitUtil: 0.5, AdmitWindow: nan},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("NaN config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestNewWithDisciplineValidatesWindow: the custom-discipline constructor
// must reject a window that would disarm the admission controller.
func TestNewWithDisciplineValidatesWindow(t *testing.T) {
	var clock netsim.Clock
	_, err := NewWithDiscipline(&clock, Config{Concurrency: 1, AdmitWindow: -10}, newFIFO(),
		UtilizationGate{Threshold: 0.5})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative window: err = %v, want ErrBadConfig", err)
	}
}

// TestWFQPromoteRescindsSpecCharge: promoting the spec flow's most recent
// entry rolls the flow's finish tag back, so the client's next speculative
// push is not billed for work the spec class never served.
func TestWFQPromoteRescindsSpecCharge(t *testing.T) {
	w := newWFQ(4, 1)
	a := &Request{Client: 0, Page: 1, Service: 10}
	w.Push(a)
	before := w.last[flowID(0, false)]
	if before != 10 { // 10 / specW(1)
		t.Fatalf("spec finish tag = %v, want 10", before)
	}
	if !w.Promote(0, 1) {
		t.Fatal("Promote found nothing")
	}
	if after := w.last[flowID(0, false)]; after != 0 {
		t.Errorf("spec finish tag after promote = %v, want 0 (charge rescinded)", after)
	}
	// The request now carries demand-class tags instead.
	if demand := w.last[flowID(0, true)]; demand != 2.5 { // 10 / demandW(4)
		t.Errorf("demand finish tag = %v, want 2.5", demand)
	}
}

// TestSnapshot: the feedback snapshot reports the scheduler's congestion
// state faithfully and never perturbs the timeline (a run probed by
// snapshots replays bit-for-bit against an unprobed one).
func TestSnapshot(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 1, AdmitUtil: 0.5, AdmitWindow: 10, AdmitDefer: true})
	if err != nil {
		t.Fatal(err)
	}
	if fb := s.Snapshot(0); fb != (Feedback{}) {
		t.Errorf("idle snapshot = %+v, want zero", fb)
	}
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 20, Demand: true})
		s.Submit(Request{Client: 0, Page: 2, Service: 1, Demand: true})
	})
	clock.Schedule(15, func() {
		s.Submit(Request{Client: 1, Page: 3, Service: 1}) // deferred: util 1 >= 0.5
		fb := s.Snapshot(clock.Now())
		if fb.Time != 15 || fb.Utilization != 1 {
			t.Errorf("snapshot time/util = %v/%v, want 15/1", fb.Time, fb.Utilization)
		}
		if fb.InFlight != 1 || fb.Queued != 1 || fb.QueuedDemand != 1 {
			t.Errorf("snapshot occupancy = %+v, want 1 in flight, 1 queued demand", fb)
		}
		if fb.DeferredNow != 1 || fb.DeferredTotal != 1 {
			t.Errorf("snapshot deferrals = %+v, want 1 parked", fb)
		}
	})
	clock.Run()
	// Snapshot must be read-only: a probed run equals an unprobed one.
	load := genArrivals(21, 4, 40)
	cfg := Config{Concurrency: 2, Kind: KindPriority, AdmitUtil: 0.6, AdmitWindow: 15}
	plain := fingerprint(t, cfg, load)
	var probed string
	{
		var c2 netsim.Clock
		s2, err := New(&c2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		s2.Done = func(r *Request, service, waited float64) {
			s2.Snapshot(c2.Now()) // probe on every completion
			out += fmt.Sprintf("%d/%d@%.9f+%.9f;", r.Client, r.Page, c2.Now(), waited)
		}
		for _, a := range load {
			a := a
			c2.Schedule(a.at, func() {
				s2.Snapshot(c2.Now()) // and before every submission
				s2.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
			})
		}
		c2.Run()
		probed = fmt.Sprintf("%s|busy=%.9f|n=%d|pre=%d|drop=%d", out, s2.BusyTime(), s2.Completed(), s2.Preemptions(), s2.Dropped())
	}
	if plain != probed {
		t.Error("snapshot probing perturbed the completion trace")
	}
}

// BenchmarkSchedulerDequeue drives each discipline through a contended
// synthetic load (6 clients x 200 requests on 2 slots) per op — the
// submit/dispatch/complete hot path the multiclient simulation leans on.
// Tracked by the benchmark-regression gate (cmd/benchjson).
func BenchmarkSchedulerDequeue(b *testing.B) {
	load := genArrivals(13, 6, 200)
	for _, kind := range Kinds() {
		cfg := Config{Concurrency: 2, Kind: kind}
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var clock netsim.Clock
				s, err := New(&clock, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range load {
					a := a
					clock.Schedule(a.at, func() {
						s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
					})
				}
				clock.Run()
				if s.Completed() != int64(len(load)) {
					b.Fatalf("completed %d of %d", s.Completed(), len(load))
				}
			}
		})
	}
}

// BenchmarkSchedulerComplete measures one transfer completion and the
// start that refills its slot, with every slot busy and a backlog of a
// quarter as many requests queued behind them: one op is one transfer.
// Service times are random, so completions unlink nodes from anywhere in
// the in-flight list; the cost must not grow linearly with Concurrency,
// which BenchmarkSchedulerDequeue (2 slots) cannot show. Tracked by the
// benchmark-regression gate (cmd/benchjson).
func BenchmarkSchedulerComplete(b *testing.B) {
	for _, conc := range []int{64, 4096, 16384} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			var clock netsim.Clock
			s, err := New(&clock, Config{Concurrency: conc})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(uint64(conc))
			page := 0
			submit := func() {
				page++
				s.Submit(Request{Client: page % 1024, Page: page, Service: 0.5 + 4*r.Float64(), Demand: page%3 == 0})
			}
			done := 0
			s.Done = func(*Request, float64, float64) {
				done++
				if done == b.N {
					b.StopTimer() // the untimed drain follows
				}
				if done <= b.N {
					submit() // keep every slot busy and the backlog full
				}
			}
			for i := 0; i < conc+conc/4; i++ {
				submit()
			}
			if s.InFlight() != conc || s.Queued() != conc/4 {
				b.Fatalf("setup: %d in flight, %d queued", s.InFlight(), s.Queued())
			}
			b.ReportAllocs()
			b.ResetTimer()
			clock.Run()
			if done != b.N+conc+conc/4 {
				b.Fatalf("completed %d of %d", done, b.N+conc+conc/4)
			}
		})
	}
}

// TestShapedDrainsSustainedLoad is the regression test for a liveness
// bug: under a long contended load, a speculative head could end up one
// float ulp short of its token need at an instant where the computed
// refill wake-up rounded to "now" — ReadyAt claimed eligible-now, Pop
// disagreed, no wake-up was planted, and the backlog stalled forever.
// This exact load left 132 of 1200 requests queued before the tokenEps
// fix.
func TestShapedDrainsSustainedLoad(t *testing.T) {
	load := genArrivals(13, 6, 200)
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 2, Kind: KindShaped})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range load {
		a := a
		clock.Schedule(a.at, func() {
			s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
		})
	}
	clock.Run()
	if s.Completed() != int64(len(load)) {
		t.Fatalf("shaped stalled: completed %d of %d, %d still queued",
			s.Completed(), len(load), s.Queued())
	}
}
