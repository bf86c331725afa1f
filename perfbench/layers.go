package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"prefetch/internal/obs"
	"prefetch/internal/rng"
	"prefetch/internal/webgraph"
)

// setupBound is the setup_s bound in BENCHMARK.json; the set-up
// cross-check reports whether the two set-up timings agree within it.
const setupBound = 0.25

// sampleCap bounds the events kept for the encoder replay.
const sampleCap = 1 << 16

// clientTrace is one client's view of the traced run, by round.
type clientTrace struct {
	pages   []int32   // accessed page per round (predict_observe)
	viewing []float64 // viewing time per round (round_start)
	lambda  []float64 // λ per round (lambda)
}

// recorder is the traced pass's tracer. It counts events by kind, keeps
// the simulated-time statistics of the per-layer report, the per-client
// traces the replays take their inputs from, and a decimated sample of
// the event stream for the encoder replay. It stamps the first event
// like the set-up probe, without aborting.
type recorder struct {
	firstEvent
	events  int64
	byKind  map[obs.Kind]int64
	waitSum float64 // sq_dequeue queueing delay
	clients []clientTrace
	sample  []obs.Event
	stride  int64 // keep one event in stride
}

func newRecorder(clients int) *recorder {
	return &recorder{byKind: map[obs.Kind]int64{}, clients: make([]clientTrace, clients), stride: 1}
}

func (r *recorder) Emit(ev obs.Event) {
	r.firstEvent.Emit(ev)
	r.events++
	r.byKind[ev.Kind]++
	switch ev.Kind {
	case obs.KindDequeue:
		r.waitSum += ev.Waited
	case obs.KindPredictObserve:
		ct := &r.clients[ev.Client]
		ct.pages = append(ct.pages, int32(ev.Page))
	case obs.KindRoundStart:
		ct := &r.clients[ev.Client]
		ct.viewing = append(ct.viewing, ev.Viewing)
	case obs.KindLambda:
		ct := &r.clients[ev.Client]
		ct.lambda = append(ct.lambda, ev.Lambda)
	}
	if r.events%r.stride == 0 {
		if len(r.sample) == sampleCap {
			// Keep every other sampled event and halve the rate, so the
			// sample spans the whole run at a fixed size.
			for i := 0; i < sampleCap/2; i++ {
				r.sample[i] = r.sample[2*i+1]
			}
			r.sample = r.sample[:sampleCap/2]
			r.stride *= 2
		}
		if r.events%r.stride == 0 {
			r.sample = append(r.sample, ev)
		}
	}
}

// perLayer measures the per-layer metrics: one untraced run under the
// CPU profiler, one run traced through the recorder, set-up probes, and
// replays of each layer's public functions on the workload's inputs.
// Per-layer host times come from the replays and the profile only,
// never from traced wall time, which the tracer itself inflates.
func perLayer(wl *workload, opt options, rep *report) error {
	cfg := wl.config(subSeed(opt.seed, 0), opt.small)
	clientRounds := float64(cfg.Clients) * float64(cfg.Rounds)

	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	start := time.Now()
	res, err := wl.run(cfg, nil)
	untraced := time.Since(start)
	pprof.StopCPUProfile()
	if ok, err := rep.gate.check(cfg, res, err); !ok {
		rep.notef("untraced run failed the gate: %v", err)
	}
	shares, err := packageShares(prof.Bytes())
	if err != nil {
		return err
	}

	runtime.GC()
	rec := newRecorder(cfg.Clients)
	rec.start = time.Now()
	tres, err := wl.run(cfg, rec)
	traced := time.Since(rec.start)
	if ok, gerr := rep.gate.check(cfg, tres, err); !ok {
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		rep.notef("traced run failed the gate: %v", gerr)
	}
	if rec.at == 0 {
		return fmt.Errorf("traced run emitted no event")
	}
	setups := []float64{rec.at.Seconds()}
	for len(setups) < 3 {
		runtime.GC()
		d, err := probeSetup(wl, cfg)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	setup := median(setups)

	site, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site)
	if err != nil {
		return err
	}
	in := newReplayInputs(cfg, site, rec.clients)
	generate := timeReps(func() {
		if _, err := webgraph.Generate(rng.Derive(cfg.Seed, "site"), cfg.Site); err != nil {
			panic(err)
		}
	})
	scripts, scriptable, err := replayScripts(cfg, site)
	if err != nil {
		return err
	}
	nextDist := replayNextDist(in)
	observe, next, l1, problems, err := replayPredict(in)
	if err != nil {
		return err
	}
	solve, err := replaySolve(problems)
	if err != nil {
		return err
	}
	holdNs := replayEventq(in)
	outstanding := cfg.Clients
	if wl.fleet != nil {
		outstanding = (cfg.Clients + wl.fleet.replicas - 1) / wl.fleet.replicas
	}
	issues := rec.byKind[obs.KindDemandIssue] + rec.byKind[obs.KindSpecIssue]
	demandFrac := float64(rec.byKind[obs.KindDemandIssue]) / math.Max(1, float64(issues))
	transferNs, snapshotNs, err := replaySchedsrv(in, outstanding, demandFrac)
	if err != nil {
		return err
	}
	cacheNs, err := replayCache(in)
	if err != nil {
		return err
	}
	routeNs, routed, err := replayRoute(in, wl.fleet)
	if err != nil {
		return err
	}
	encodeNs, bytesPerEvent, err := replayEncode(rec.sample)
	if err != nil {
		return err
	}

	direct := generate + scripts
	agree := math.Abs(direct-setup) <= setupBound*setup
	rep.notef("per-layer host times come from outside replays and the CPU profile, never from traced wall time")
	rep.notef("untraced run %.3fs, traced run %.3fs", untraced.Seconds(), traced.Seconds())
	rep.notef("setup cross-check: first-event %.6fs vs Generate+GenerateScripts %.6fs; agree within %.0f%%: %v",
		setup, direct, 100*setupBound, agree)
	if !scriptable {
		rep.notef("multiclient.scripts_s: not applicable, the shared predictor keeps the unscripted inline path (reported 0)")
	}
	if !routed {
		rep.notef("fleet.route_ns: not applicable, a single server has no router (reported 0)")
	}
	rep.notef("replays: %d accesses from %d clients; %d solver problems; %d events encoded",
		in.accesses, len(in.traces), len(problems), len(rec.sample))

	sum := summarize(tres)
	count := func(k obs.Kind) float64 { return float64(rec.byKind[k]) }
	dequeues := count(obs.KindDequeue)
	specIssued := count(obs.KindSpecIssue)

	rep.add("webgraph.generate_s", generate, "s")
	rep.add("webgraph.next_dist_ns", nextDist, "ns")
	rep.add("multiclient.scripts_s", scripts, "s")
	rep.add("multiclient.phase_b_s", untraced.Seconds()-setup, "s")
	rep.add("predict.observe_ns", observe, "ns")
	rep.add("predict.next_ns", next, "ns")
	rep.add("predict.l1_ns", l1, "ns")
	rep.add("core.solve_ns", solve, "ns")
	rep.add("eventq.ns_per_event", holdNs, "ns")
	rep.add("schedsrv.ns_per_transfer", transferNs, "ns")
	rep.add("schedsrv.ns_per_snapshot", snapshotNs, "ns")
	rep.add("cache.ns_per_op", cacheNs, "ns")
	rep.add("fleet.route_ns", routeNs, "ns")
	rep.add("obs.encode_ns_per_event", encodeNs, "ns")
	rep.add("obs.bytes_per_event", bytesPerEvent, "B")
	rep.add("setup.first_event_s", setup, "s")
	rep.add("setup.direct_s", direct, "s")

	rep.add("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), "ratio")
	rep.add("trace.events_per_client_round", float64(rec.events)/clientRounds, "count")
	rep.add("schedsrv.transfers_per_client_round", dequeues/clientRounds, "count")
	rep.add("schedsrv.preempted", count(obs.KindPreempt), "count")
	rep.add("schedsrv.dropped", count(obs.KindDrop), "count")
	rep.add("schedsrv.deferred", count(obs.KindDefer), "count")
	rep.add("schedsrv.mean_wait", rec.waitSum/math.Max(1, dequeues), "sim_s")
	rep.add("schedsrv.utilization", sum.utilization, "ratio")
	rep.add("spec.issued_per_client_round", specIssued/clientRounds, "count")
	rep.add("spec.useful_ratio", count(obs.KindSpecUseful)/math.Max(1, specIssued), "ratio")
	rep.add("cache.server_hit_ratio", sum.serverHit, "ratio")
	rep.add("cache.evictions", count(obs.KindCacheEvict), "count")
	rep.add("predict.mean_l1", sum.l1.Mean(), "ratio")
	rep.add("fleet.reroutes", count(obs.KindReRoute), "count")
	rep.add("model.mean_access", sum.access.Mean(), "sim_s")
	rep.add("model.hit_ratio", sum.hitRatio, "ratio")

	for _, s := range shares {
		rep.add("share."+s.name, s.share, "ratio")
	}
	return nil
}

// timeReps returns the median host seconds of f over three calls, more
// while the calls so far take under a quarter second, and one when that
// call alone takes over two seconds.
func timeReps(f func()) float64 {
	var ds []float64
	var total float64
	for (len(ds) < 3 && total < 2) || (total < 0.25 && len(ds) < 25) {
		start := time.Now()
		f()
		d := time.Since(start).Seconds()
		ds = append(ds, d)
		total += d
	}
	return median(ds)
}
