package schedsrv

import (
	"testing"

	"prefetch/internal/netsim"
	"prefetch/internal/obs"
)

// checkInFlightList verifies the in-flight list's structure: consistent
// links in both directions, a length equal to the slot count, start order
// (startedAt never decreases head to tail), and no cancelled node.
func checkInFlightList(t *testing.T, s *Scheduler) {
	t.Helper()
	if s.head != nil && s.head.prev != nil || s.tail != nil && s.tail.next != nil {
		t.Fatal("in-flight list ends carry outward links")
	}
	n := 0
	var last *transfer
	for tr := s.head; tr != nil; tr = tr.next {
		if tr.prev != last {
			t.Fatalf("node %d: prev link does not point at its predecessor", n)
		}
		if last != nil && tr.startedAt < last.startedAt {
			t.Fatalf("node %d started at %v, after a node started at %v", n, tr.startedAt, last.startedAt)
		}
		if tr.cancelled {
			t.Fatalf("node %d is cancelled but still linked", n)
		}
		last = tr
		n++
	}
	if last != s.tail {
		t.Fatal("walking next from head does not end at tail")
	}
	if n != s.inFlight || n > s.cfg.Concurrency {
		t.Fatalf("list holds %d nodes, slot count %d, concurrency %d", n, s.inFlight, s.cfg.Concurrency)
	}
}

// pushBack hides priority's requeueFront, so a preempted request goes to
// the back of its class queue. Restarted requests then start after
// younger ones, and a same-instant tie can put an older seq at the tail.
type pushBack struct{ Discipline }

// victimOracle is a Tracer that, at every demand arrival, recomputes the
// preemption victim by brute force — the argmax of (startedAt, seq) over
// every in-flight speculative transfer — and checks it against the
// sq_preempt event that follows. It checks the list's structure on every
// event too.
type victimOracle struct {
	t *testing.T
	s *Scheduler

	want      *transfer // expected victim of the pending demand arrival
	wantTie   bool      // another candidate started at the same instant
	wantTail  bool      // want is the tail-most of those candidates
	checked   int       // preemptions compared against the oracle
	ties      int       // of those, with a same-instant speculative rival
	notAtTail int       // of those, where the victim was not the tail-most candidate
}

func (o *victimOracle) Enabled() bool { return true }

func (o *victimOracle) Emit(ev obs.Event) {
	checkInFlightList(o.t, o.s)
	switch {
	case ev.Kind == obs.KindEnqueue && ev.Demand, ev.Kind == obs.KindPromote && ev.Note == "queued":
		if o.want != nil {
			o.t.Fatalf("t=%v: expected preemption of page %d did not happen", ev.T, o.want.req.Page)
		}
		if o.s.inFlight < o.s.cfg.Concurrency {
			return
		}
		for tr := o.s.head; tr != nil; tr = tr.next {
			if tr.req.Demand {
				continue
			}
			if o.want == nil || tr.startedAt > o.want.startedAt ||
				tr.startedAt == o.want.startedAt && tr.req.seq > o.want.req.seq {
				o.want = tr
			}
		}
		if o.want == nil {
			return
		}
		o.wantTie, o.wantTail = false, true
		passed := false
		for tr := o.s.head; tr != nil; tr = tr.next {
			switch {
			case tr == o.want:
				passed = true
			case !tr.req.Demand && tr.startedAt == o.want.startedAt:
				o.wantTie = true
				o.wantTail = o.wantTail && !passed
			}
		}
	case ev.Kind == obs.KindPreempt:
		want := o.want
		o.want = nil
		if want == nil {
			o.t.Fatalf("t=%v: unexpected preemption of page %d", ev.T, ev.Page)
		}
		if ev.Client != want.req.Client || ev.Page != want.req.Page {
			o.t.Fatalf("t=%v: preempted %d/%d, want argmax(startedAt, seq) victim %d/%d",
				ev.T, ev.Client, ev.Page, want.req.Client, want.req.Page)
		}
		o.checked++
		if o.wantTie {
			o.ties++
			if !o.wantTail {
				o.notAtTail++
			}
		}
	}
}

// TestPreemptVictimArgmax replays the tied wide load under preemption and
// checks every victim against the brute-force argmax of (startedAt, seq).
// With the built-in priority discipline the tail-most candidate always
// wins a tie; pushBack restarts requests out of seq order, so there the
// walk must pass the tail to find the larger seq.
func TestPreemptVictimArgmax(t *testing.T) {
	load := genTiedArrivals(91, 48, 40)
	for _, tc := range []struct {
		name          string
		disc          Discipline
		wantNotAtTail bool
	}{
		{"priority", newPriority(), false},
		{"push-back", pushBack{newPriority()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock netsim.Clock
			s, err := NewWithDiscipline(&clock, Config{Concurrency: 16, Preempt: true}, tc.disc, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := &victimOracle{t: t, s: s}
			s.Tracer = o
			for _, a := range load {
				a := a
				clock.Schedule(a.at, func() {
					s.Submit(Request{Client: a.client, Page: a.page, Service: a.service, Demand: a.demand})
				})
			}
			clock.Run()
			t.Logf("%d preemptions, %d same-instant ties, %d won away from the tail", o.checked, o.ties, o.notAtTail)
			if o.checked == 0 || o.checked != int(s.Preemptions()) {
				t.Fatalf("oracle checked %d of %d preemptions", o.checked, s.Preemptions())
			}
			if o.ties == 0 {
				t.Fatal("load produced no same-instant preemption ties")
			}
			if got := o.notAtTail > 0; got != tc.wantNotAtTail {
				t.Fatalf("%d ties won away from the tail, want any: %v", o.notAtTail, tc.wantNotAtTail)
			}
		})
	}
}

// TestPreemptRestartedTie: two preempted speculative transfers restart at
// the same instant, the older seq last, so it sits at the list's tail.
// The next demand must still preempt the larger seq.
func TestPreemptRestartedTie(t *testing.T) {
	var clock netsim.Clock
	s, err := NewWithDiscipline(&clock, Config{Concurrency: 2, Preempt: true}, pushBack{newPriority()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	s.Tracer = col
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 100}) // seq 0
		s.Submit(Request{Client: 0, Page: 2, Service: 100}) // seq 1
	})
	clock.Schedule(1, func() {
		// Preempt page 2, then page 1: pushed back, they restart at t=2
		// as page 2 then page 1, leaving the older seq at the tail.
		s.Submit(Request{Client: 1, Page: 3, Service: 1, Demand: true})
		s.Submit(Request{Client: 1, Page: 4, Service: 1, Demand: true})
	})
	clock.Schedule(2.5, func() {
		if s.tail == nil || s.tail.req.Page != 1 || s.tail.startedAt != s.head.startedAt {
			t.Fatal("setup: page 1 is not a same-instant tail")
		}
		s.Submit(Request{Client: 1, Page: 5, Service: 1, Demand: true})
	})
	clock.Run()
	var pages []int
	for _, ev := range col.ByKind(obs.KindPreempt) {
		pages = append(pages, ev.Page)
	}
	if len(pages) != 3 || pages[0] != 2 || pages[1] != 1 || pages[2] != 2 {
		t.Fatalf("preempted pages %v, want [2 1 2]", pages)
	}
}

// TestFailManyInFlight: Fail with every one of many slots busy and a
// backlog behind them loses all of it, adds each transfer's elapsed
// service in start order, and leaves an empty in-flight list.
func TestFailManyInFlight(t *testing.T) {
	const slots, queued = 32, 8
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: slots, Kind: KindPriority})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	s.Done = func(r *Request, service, waited float64) { done++ }
	for i := 0; i < slots+queued; i++ {
		i := i
		clock.Schedule(float64(i)/4, func() {
			s.Submit(Request{Client: i, Page: i, Service: 100, Demand: i%2 == 0})
		})
	}
	const failAt = 20.0
	lost := 0
	clock.Schedule(failAt, func() {
		if s.InFlight() != slots || s.Queued() != queued {
			t.Fatalf("before Fail: %d in flight, %d queued", s.InFlight(), s.Queued())
		}
		lost = s.Fail()
		if s.head != nil || s.tail != nil || s.InFlight() != 0 {
			t.Fatal("in-flight list not empty after Fail")
		}
	})
	clock.Run()
	if lost != slots+queued {
		t.Fatalf("Fail lost %d, want %d", lost, slots+queued)
	}
	want := 0.0
	for i := 0; i < slots; i++ {
		want += failAt - float64(i)/4
	}
	if s.BusyTime() != want {
		t.Fatalf("BusyTime() = %v, want %v", s.BusyTime(), want)
	}
	if done != 0 {
		t.Fatalf("Done fired %d times after Fail", done)
	}
	if s.trPool.Idle() != slots {
		t.Fatalf("%d transfer nodes pooled after the orphans drained, want %d", s.trPool.Idle(), slots)
	}
	for s.trPool.Idle() > 0 {
		if tr := s.trPool.Get(); tr.prev != nil || tr.next != nil {
			t.Fatal("a transfer cancelled by Fail reached the pool with its links set")
		}
	}
}

// TestPooledTransferLinksCleared: every transfer node reaches the pool
// with nil links — after a completion at the head, in the middle and as
// the only node, and after a preemption unlinked it from the middle of
// the list.
func TestPooledTransferLinksCleared(t *testing.T) {
	var clock netsim.Clock
	s, err := New(&clock, Config{Concurrency: 3, Kind: KindPriority, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	clock.Schedule(0, func() {
		s.Submit(Request{Client: 0, Page: 1, Service: 100})              // head; completes with a successor
		s.Submit(Request{Client: 0, Page: 2, Service: 100})              // preempted from the middle
		s.Submit(Request{Client: 0, Page: 3, Service: 50, Demand: true}) // completes in the middle
	})
	clock.Schedule(1, func() {
		s.Submit(Request{Client: 1, Page: 4, Service: 1, Demand: true})
		if s.Preemptions() != 1 {
			t.Fatal("setup: the demand did not preempt")
		}
	})
	clock.Run()
	if s.Completed() != 4 {
		t.Fatalf("completed %d of 4", s.Completed())
	}
	if s.trPool.Idle() != 4 {
		t.Fatalf("%d transfer nodes pooled, want 4", s.trPool.Idle())
	}
	for s.trPool.Idle() > 0 {
		tr := s.trPool.Get()
		if tr.prev != nil || tr.next != nil {
			t.Fatal("a pooled transfer node still carries in-flight links")
		}
		if tr.req != nil {
			t.Fatal("a pooled transfer node still pins its request")
		}
	}
}
