package main

import (
	"fmt"
	"sort"
	"time"

	"prefetch/internal/cache"
	"prefetch/internal/core"
	"prefetch/internal/multiclient"
	"prefetch/internal/netsim"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/rng"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// Replay sizes: enough calls that each timing is a few hundred
// milliseconds at most, the same for every workload.
const (
	maxAccesses   = 30_000 // accesses taken from the traced run, in client order
	maxProblems   = 20_000 // solver problems
	holdEvents    = 1_000_000
	snapshotCalls = 2_000
)

// replayInputs is what the replays take from the workload: its config,
// its site and the traced run's per-client traces, capped at
// maxAccesses accesses in client-id order.
type replayInputs struct {
	cfg      multiclient.Config
	site     *webgraph.Site
	traces   []clientTrace
	accesses int
}

func newReplayInputs(cfg multiclient.Config, site *webgraph.Site, clients []clientTrace) *replayInputs {
	in := &replayInputs{cfg: cfg, site: site}
	for _, ct := range clients {
		if in.accesses >= maxAccesses {
			break
		}
		if n := maxAccesses - in.accesses; len(ct.pages) > n {
			ct.pages = ct.pages[:n]
		}
		in.traces = append(in.traces, ct)
		in.accesses += len(ct.pages)
	}
	return in
}

// states returns the page each round of a trace plans from: the start
// page, then each accessed page in turn.
func states(ct clientTrace) []int {
	out := make([]int, len(ct.pages))
	for i := 1; i < len(ct.pages); i++ {
		out[i] = int(ct.pages[i-1])
	}
	return out
}

// oracle returns a surfer whose NextDistributionFrom is the workload's
// true next-page distribution (drifting like the workload's surfers).
func (in *replayInputs) oracle() *webgraph.Surfer {
	s := webgraph.NewSurfer(rng.Derive(in.cfg.Seed, "perfbench/surfer"), in.site, in.cfg.FollowProb)
	if in.cfg.DriftEvery > 0 {
		s.EnableDrift(rng.Derive(in.cfg.Seed, "perfbench/drift"), in.cfg.DriftEvery)
	}
	return s
}

// sink keeps replayed results alive so no call is optimised away.
var sink int

// replayNextDist times Surfer.NextDistributionFrom over the page trace.
func replayNextDist(in *replayInputs) float64 {
	s := in.oracle()
	var all []int
	for _, ct := range in.traces {
		all = append(all, states(ct)...)
	}
	d := timeReps(func() {
		for _, p := range all {
			sink += len(s.NextDistributionFrom(p))
		}
	})
	return nsPer(d, len(all))
}

// replayPredict runs the workload's predict.Config over each client's
// page trace the way a client does — Next on the current page, then
// Observe of the accessed page — timing each call, and predict.L1
// against the oracle distribution. It also returns the solver problems
// built from the first rep's predictions.
func replayPredict(in *replayInputs) (observeNs, nextNs, l1Ns float64, problems []problem, err error) {
	oracle := in.oracle()
	var obsD, nextD, l1D []float64
	for rep := 0; rep < 3; rep++ {
		var tObs, tNext, tL1 time.Duration
		var agg *predict.Aggregate
		if in.cfg.Predict.Kind == predict.KindShared {
			agg = predict.NewAggregate()
		}
		for c, ct := range in.traces {
			src, err := predict.New(in.cfg.Predict, c, oracle.NextDistributionFrom, agg)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			src.Observe(0)
			for r, state := range states(ct) {
				t0 := time.Now()
				dist := src.Next(state)
				t1 := time.Now()
				truth := oracle.NextDistributionFrom(state)
				t2 := time.Now()
				sink += int(predict.L1(dist, truth))
				t3 := time.Now()
				src.Observe(int(ct.pages[r]))
				t4 := time.Now()
				tNext += t1.Sub(t0)
				tL1 += t3.Sub(t2)
				tObs += t4.Sub(t3)
				if rep == 0 && len(problems) < maxProblems {
					problems = append(problems, newProblem(in, dist, ct, r))
				}
			}
		}
		obsD = append(obsD, tObs.Seconds())
		nextD = append(nextD, tNext.Seconds())
		l1D = append(l1D, tL1.Seconds())
	}
	n := in.accesses
	return nsPer(median(obsD), n), nsPer(median(nextD), n), nsPer(median(l1D), n), problems, nil
}

// problem is one planner call: the ranked, capped candidates of a round
// and the λ the round was solved at.
type problem struct {
	p      core.Problem
	lambda float64
}

// newProblem ranks a predicted distribution the way the client planner
// does (probability descending, page id ascending, zero mass dropped),
// caps it at MaxCandidates, and pairs it with round r's viewing time
// and λ from the traced run.
func newProblem(in *replayInputs, dist map[int]float64, ct clientTrace, r int) problem {
	items := make([]core.Item, 0, len(dist))
	for page, prob := range dist {
		if prob > 0 {
			items = append(items, core.Item{ID: page, Prob: prob, Retrieval: in.site.Pages[page].Retrieval})
		}
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Prob != items[b].Prob {
			return items[a].Prob > items[b].Prob
		}
		return items[a].ID < items[b].ID
	})
	if len(items) > in.cfg.MaxCandidates {
		items = items[:in.cfg.MaxCandidates]
	}
	viewing := in.cfg.MeanViewing
	if r < len(ct.viewing) {
		viewing = ct.viewing[r]
	}
	var lambda float64
	if r < len(ct.lambda) {
		lambda = ct.lambda[r]
	}
	return problem{core.Problem{Items: items, Viewing: viewing, TotalProb: 1}, lambda}
}

// replaySolve times the planner's SKP solver over the problems.
func replaySolve(problems []problem) (float64, error) {
	if len(problems) == 0 {
		return 0, fmt.Errorf("no solver problems: the traced run planned nothing")
	}
	solver := core.NewSolver()
	var err error
	d := timeReps(func() {
		for _, pr := range problems {
			plan, _, e := solver.Solve(pr.p, core.Options{}.WithNetworkLambda(pr.lambda))
			if e != nil {
				err = e
			}
			sink += plan.Len()
		}
	})
	return nsPer(d, len(problems)), err
}

// replayEventq runs the hold model on a netsim.Clock: Clients events
// pending, each fired event scheduling one more at an exponential delay
// with the workload's mean viewing time, until holdEvents have fired.
func replayEventq(in *replayInputs) float64 {
	r := rng.Derive(in.cfg.Seed, "perfbench/hold")
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = r.Exp(1 / in.cfg.MeanViewing)
	}
	d := timeReps(func() {
		var clock netsim.Clock
		fired := 0
		var fire func()
		fire = func() {
			fired++
			if fired+in.cfg.Clients <= holdEvents {
				clock.After(delays[fired%len(delays)], fire)
			}
		}
		for i := 0; i < in.cfg.Clients; i++ {
			clock.Schedule(delays[i%len(delays)], fire)
		}
		clock.Run()
		sink += fired
	})
	return nsPer(d, holdEvents)
}

// replaySchedsrv drives a schedsrv.Scheduler on a netsim.Clock with the
// workload's discipline and concurrency and `outstanding` requests in
// the system: each completion submits the client's next request, with
// service times from the page trace and the traced run's demand share.
// Halfway through, in steady state, it times Snapshot and Peek.
func replaySchedsrv(in *replayInputs, outstanding int, demandFrac float64) (transferNs, snapshotNs float64, err error) {
	var pages []int32
	for _, ct := range in.traces {
		pages = append(pages, ct.pages...)
	}
	if len(pages) == 0 {
		return 0, 0, fmt.Errorf("no accesses in the traced run")
	}
	total := 2*outstanding + 50_000
	var tD, sD []float64
	for rep := 0; rep < 3; rep++ {
		var clock netsim.Clock
		scfg := in.cfg.Sched
		scfg.Concurrency = in.cfg.ServerConcurrency
		s, err := schedsrv.New(&clock, scfg)
		if err != nil {
			return 0, 0, err
		}
		r := rng.Derive(in.cfg.Seed, "perfbench/schedsrv")
		submitted, done := 0, 0
		submit := func(client int) {
			p := pages[submitted%len(pages)]
			submitted++
			s.Submit(schedsrv.Request{Client: client, Page: int(p),
				Service: in.site.Pages[p].Retrieval, Demand: r.Float64() < demandFrac})
		}
		var snap time.Duration
		s.Done = func(req *schedsrv.Request, _, _ float64) {
			done++
			if done == total/2 {
				now := clock.Now()
				start := time.Now()
				for i := 0; i < snapshotCalls; i++ {
					sink += s.Snapshot(now).InFlight + s.Peek(now).Queued
				}
				snap = time.Since(start)
			}
			if submitted < total {
				submit(req.Client)
			}
		}
		start := time.Now()
		for c := 0; c < outstanding; c++ {
			submit(c)
		}
		clock.Run()
		if done == 0 {
			return 0, 0, fmt.Errorf("scheduler replay completed no transfer")
		}
		tD = append(tD, nsPer((time.Since(start)-snap).Seconds(), done))
		sD = append(sD, nsPer(snap.Seconds(), 2*snapshotCalls))
	}
	return median(tD), median(sD), nil
}

// replayCache replays the page trace against internal/cache at each of
// the workload's nonzero slot counts, the way the simulator uses it:
// Contains, then RecordAccess on a hit or LRU insert on a miss.
func replayCache(in *replayInputs) (float64, error) {
	var pages []int32
	for _, ct := range in.traces {
		pages = append(pages, ct.pages...)
	}
	caches := 0
	for _, slots := range []int{in.cfg.ClientCacheSlots, in.cfg.ServerCacheSlots} {
		if slots > 0 {
			caches++
		}
	}
	if caches == 0 {
		return 0, fmt.Errorf("cache replay: workload has no cache")
	}
	var err error
	d := timeReps(func() {
		for _, slots := range []int{in.cfg.ClientCacheSlots, in.cfg.ServerCacheSlots} {
			if slots <= 0 {
				continue
			}
			c, e := cache.New(slots)
			if e != nil {
				err = e
				return
			}
			for _, p := range pages {
				id := int(p)
				if c.Contains(id) {
					c.RecordAccess(id)
					continue
				}
				if c.Free() == 0 {
					if v, ok := c.Victim(cache.LRU{}); ok {
						if e := c.Evict(v); e != nil {
							err = e
						}
					}
				}
				if e := c.Insert(id, in.site.Pages[id].Retrieval); e != nil {
					err = e
				}
			}
		}
	})
	return nsPer(d, len(pages)*caches), err
}

// replayEncode streams the sampled events through obs.Writer into a
// byte counter that discards them.
func replayEncode(events []obs.Event) (nsPerEvent, bytesPerEvent float64, err error) {
	if len(events) == 0 {
		return 0, 0, fmt.Errorf("no events to encode")
	}
	var n countingDiscard
	d := timeReps(func() {
		n = 0
		w := obs.NewWriter(&n)
		for _, ev := range events {
			w.Emit(ev)
		}
		if e := w.Flush(); e != nil {
			err = e
		}
	})
	return nsPer(d, len(events)), float64(n) / float64(len(events)), err
}

// countingDiscard is io.Discard that counts bytes.
type countingDiscard int64

func (c *countingDiscard) Write(p []byte) (int, error) {
	*c += countingDiscard(len(p))
	return len(p), nil
}

func nsPer(seconds float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return seconds * 1e9 / float64(n)
}
