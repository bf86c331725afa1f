package multiclient

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"prefetch/internal/schedsrv"
	"prefetch/internal/sweep"
	"prefetch/internal/webgraph"
)

// testConfig is a small, fast configuration with real contention.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Clients = 4
	cfg.Rounds = 80
	cfg.ServerConcurrency = 2
	cfg.Site = webgraph.SiteConfig{
		Pages: 60, MinLinks: 3, MaxLinks: 8, ZipfS: 1.1,
		MinSizeKB: 2, MaxSizeKB: 60, BandwidthKBps: 16, LatencyS: 0.3,
	}
	cfg.Seed = 7
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.ServerConcurrency = 0 },
		func(c *Config) { c.ServerCacheSlots = -1 },
		func(c *Config) { c.ServerCacheSlots = 10; c.ServerHitFactor = 0 },
		func(c *Config) { c.ServerCacheSlots = 10; c.ServerHitFactor = 1.5 },
		func(c *Config) { c.ClientCacheSlots = -1 },
		func(c *Config) { c.MeanViewing = 0 },
		func(c *Config) { c.MinViewing = -1 },
		func(c *Config) { c.MaxCandidates = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("mutation %d: Run error = %v, want ErrBadConfig", i, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

// TestDeterminism proves two runs with the same master seed produce
// identical aggregate metrics, bit for bit.
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Access.Mean() != b.Access.Mean() || a.Access.N() != b.Access.N() {
		t.Errorf("aggregate access differs: %v/%d vs %v/%d",
			a.Access.Mean(), a.Access.N(), b.Access.Mean(), b.Access.N())
	}
	if a.QueueWait.Mean() != b.QueueWait.Mean() {
		t.Errorf("queue wait differs: %v vs %v", a.QueueWait.Mean(), b.QueueWait.Mean())
	}
	if a.Elapsed != b.Elapsed || a.ServerBusy != b.ServerBusy {
		t.Errorf("timeline differs: elapsed %v/%v busy %v/%v",
			a.Elapsed, b.Elapsed, a.ServerBusy, b.ServerBusy)
	}
	if a.ServerRequests != b.ServerRequests {
		t.Errorf("server requests differ: %d vs %d", a.ServerRequests, b.ServerRequests)
	}
	for i := range a.PerClient {
		pa, pb := a.PerClient[i], b.PerClient[i]
		if pa.Access.Mean() != pb.Access.Mean() || pa.PrefetchIssued != pb.PrefetchIssued {
			t.Errorf("client %d differs: mean %v/%v prefetches %d/%d",
				i, pa.Access.Mean(), pb.Access.Mean(), pa.PrefetchIssued, pb.PrefetchIssued)
		}
	}
}

// TestClientWorkloadsStableAcrossN proves the partitioned-RNG property:
// client i's derived stream, and hence its page/viewing workload, is the
// same no matter how many other clients run beside it. Demand-fetch counts
// depend only on the client's own trace and cache, both timing-independent
// with prefetching disabled and an unbounded round scope.
func TestClientWorkloadsStableAcrossN(t *testing.T) {
	cfg := testConfig()
	cfg.DisablePrefetch = true
	cfg.Clients = 2
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clients = 5
	big, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.PerClient {
		if small.PerClient[i].DemandFetches != big.PerClient[i].DemandFetches {
			t.Errorf("client %d demand fetches changed with N: %d vs %d",
				i, small.PerClient[i].DemandFetches, big.PerClient[i].DemandFetches)
		}
	}
}

// TestContentionMonotonic shows mean access time is monotonically
// non-decreasing as the client count grows with fixed server concurrency.
func TestContentionMonotonic(t *testing.T) {
	cfg := testConfig()
	cfg.ServerConcurrency = 1
	prev := -1.0
	for _, n := range []int{1, 2, 4, 8} {
		cfg.Clients = n
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mean := res.Access.Mean()
		t.Logf("N=%d mean access %.4f queue wait %.4f util %.3f", n, mean, res.QueueWait.Mean(), res.Utilization())
		if mean < prev {
			t.Errorf("mean access decreased from %.6f to %.6f at N=%d", prev, mean, n)
		}
		prev = mean
	}
}

// TestNoContentionNoQueueing gives every possible outstanding transfer its
// own server slot, so no request ever waits.
func TestNoContentionNoQueueing(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 3
	cfg.ServerConcurrency = cfg.Clients * (cfg.MaxCandidates + 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueWait.Max() != 0 {
		t.Errorf("queue wait max = %v with surplus concurrency, want 0", res.QueueWait.Max())
	}
}

// TestServerCacheHelps: a shared server cache over a popularity-skewed site
// must get hits and cut total service time.
func TestServerCacheHelps(t *testing.T) {
	cfg := testConfig()
	without, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ServerCacheSlots = cfg.Site.Pages
	with, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.ServerCacheHits == 0 {
		t.Fatal("server cache recorded no hits")
	}
	if with.HitRate() <= 0 || with.HitRate() > 1 {
		t.Errorf("hit rate %v out of (0,1]", with.HitRate())
	}
	if with.ServerBusy >= without.ServerBusy {
		t.Errorf("server busy time did not drop with a full-site cache: %v vs %v",
			with.ServerBusy, without.ServerBusy)
	}
}

// TestPrefetchImproves: without slot contention, speculative prefetching
// must beat the demand-only baseline on the identical workload. (Under
// contention it may legitimately lose — that regime is exactly what this
// subsystem exists to expose.)
func TestPrefetchImproves(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 2
	cfg.ServerConcurrency = cfg.Clients * (cfg.MaxCandidates + 1)
	cmp, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if imp := cmp.Improvement(); imp <= 0 {
		t.Errorf("aggregate improvement %v, want > 0 (prefetch %v baseline %v)",
			imp, cmp.Prefetch.Access.Mean(), cmp.Baseline.Access.Mean())
	}
	for i := 0; i < cfg.Clients; i++ {
		t.Logf("client %d improvement %.3f", i, cmp.ClientImprovement(i))
	}
}

func TestSweepClients(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 40
	ns := []int{1, 2, 4}
	axis, err := ClientsAxis(ns)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Sweep(cfg, 2, 0, true, axis)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(ns) {
		t.Fatalf("got %d points, want %d", len(a), len(ns))
	}
	for i, p := range a {
		if p.Clients != ns[i] || p.Reps != 2 || p.Labels[0] != strconv.Itoa(ns[i]) {
			t.Errorf("point %d = (N=%d, reps=%d, labels %v), want (N=%d, reps=2)", i, p.Clients, p.Reps, p.Labels, ns[i])
		}
		if want := int64(ns[i] * cfg.Rounds * 2); p.Access.N() != want {
			t.Errorf("point %d merged %d access observations, want %d", i, p.Access.N(), want)
		}
		if p.Improvement.N() != 2 {
			t.Errorf("point %d has %d improvement observations, want one per rep", i, p.Improvement.N())
		}
	}
	// The baseline leg is the rep's own no-prefetch run (Compare at
	// Seed+rep): rep 0 of the N=2 point reproduces a direct comparison.
	direct := cfg
	direct.Clients = ns[1]
	cmp, err := Compare(direct)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Sweep(cfg, 1, 0, true, axis)
	if err != nil {
		t.Fatal(err)
	}
	if one[1].Access != cmp.Prefetch.Access || one[1].Improvement.Mean() != cmp.Improvement() {
		t.Error("1-rep sweep point differs from a direct Compare at the same seed")
	}
	// The sweep is deterministic regardless of worker parallelism.
	b, err := Sweep(cfg, 2, 1, true, axis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Access.Mean() != b[i].Access.Mean() || a[i].Improvement.Mean() != b[i].Improvement.Mean() {
			t.Errorf("point %d differs across worker counts", i)
		}
	}
}

func TestSweepClientsBadAxis(t *testing.T) {
	cfg := testConfig()
	empty, err := ClientsAxis(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(cfg, 1, 0, true, empty); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := ClientsAxis([]int{1, 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero clients in axis: err = %v, want ErrBadConfig", err)
	}
	one, err := ClientsAxis([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(cfg, 0, 0, true, one); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
}

// schedConfigs enumerates every discipline (plus option variants) for the
// replay tests.
func schedConfigs() map[string]schedsrv.Config {
	return map[string]schedsrv.Config{
		"fifo":           {Kind: schedsrv.KindFIFO},
		"priority":       {Kind: schedsrv.KindPriority},
		"priority-pre":   {Kind: schedsrv.KindPriority, Preempt: true},
		"wfq":            {Kind: schedsrv.KindWFQ, DemandWeight: 4, SpecWeight: 1},
		"shaped":         {Kind: schedsrv.KindShaped, Rate: 0.6, Burst: 6},
		"fifo-admit":     {Kind: schedsrv.KindFIFO, AdmitUtil: 0.7, AdmitWindow: 30},
		"fifo-admit-def": {Kind: schedsrv.KindFIFO, AdmitUtil: 0.7, AdmitWindow: 30, AdmitDefer: true},
	}
}

// TestDisciplineDeterminism proves every discipline replays bit for bit:
// same seed, same full result, including per-client traces.
func TestDisciplineDeterminism(t *testing.T) {
	for name, sched := range schedConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Sched = sched
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Access.Mean() != b.Access.Mean() || a.Access.N() != b.Access.N() ||
				a.Elapsed != b.Elapsed || a.ServerBusy != b.ServerBusy ||
				a.QueueWait.Mean() != b.QueueWait.Mean() ||
				a.SpecCompleted != b.SpecCompleted || a.Preemptions != b.Preemptions ||
				a.PrefetchDropped != b.PrefetchDropped {
				t.Errorf("replay diverged: %+v vs %+v", summary(a), summary(b))
			}
			for i := range a.PerClient {
				pa, pb := a.PerClient[i], b.PerClient[i]
				if pa.Access.Mean() != pb.Access.Mean() || pa.DemandAccess.Mean() != pb.DemandAccess.Mean() ||
					pa.PrefetchIssued != pb.PrefetchIssued || pa.PrefetchDropped != pb.PrefetchDropped {
					t.Errorf("client %d replay diverged", i)
				}
			}
		})
	}
}

func summary(r Result) string {
	return fmt.Sprintf("access=%v elapsed=%v busy=%v spec=%d pre=%d drop=%d",
		r.Access.Mean(), r.Elapsed, r.ServerBusy, r.SpecCompleted, r.Preemptions, r.PrefetchDropped)
}

// TestPriorityBeatsFIFOOnDemand: at high client counts, strict demand
// priority must yield strictly lower mean demand access time than FIFO on
// the identical workload — the acceptance bar for the subsystem.
func TestPriorityBeatsFIFOOnDemand(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 12
	cfg.Rounds = 120
	fifoRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority}
	prioRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("demand access: fifo %.4f, priority %.4f (overall %.4f vs %.4f)",
		fifoRes.DemandAccess.Mean(), prioRes.DemandAccess.Mean(),
		fifoRes.Access.Mean(), prioRes.Access.Mean())
	if prioRes.DemandAccess.Mean() >= fifoRes.DemandAccess.Mean() {
		t.Errorf("priority demand access %.4f not below fifo %.4f",
			prioRes.DemandAccess.Mean(), fifoRes.DemandAccess.Mean())
	}
	if prioRes.Access.Mean() >= fifoRes.Access.Mean() {
		t.Errorf("priority overall access %.4f not below fifo %.4f",
			prioRes.Access.Mean(), fifoRes.Access.Mean())
	}
}

// TestAdmissionReducesSpeculation: with a low admission threshold on a
// saturated server, speculative requests must actually be dropped, demand
// service must go on, and every client still finishes every round.
func TestAdmissionReducesSpeculation(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Sched = schedsrv.Config{AdmitUtil: 0.5, AdmitWindow: 20}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchDropped == 0 {
		t.Error("no speculative requests dropped on a saturated server with a 0.5 threshold")
	}
	var dropped int64
	for _, pc := range res.PerClient {
		dropped += pc.PrefetchDropped
	}
	if dropped != res.PrefetchDropped {
		t.Errorf("per-client drops %d disagree with server total %d", dropped, res.PrefetchDropped)
	}
	// Deferred admission must not lose transfers either.
	cfg.Sched.AdmitDefer = true
	defRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if defRes.PrefetchDropped != 0 {
		t.Errorf("defer mode dropped %d requests", defRes.PrefetchDropped)
	}
	if defRes.PrefetchDeferred == 0 {
		t.Error("defer mode deferred nothing on a saturated server")
	}
}

// TestPreemptionOccursUnderContention: the preemptive priority variant
// actually aborts speculative transfers under load, and stays consistent.
func TestPreemptionOccursUnderContention(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Error("no preemptions on a contended server")
	}
}

// TestShapedReducesSpecThroughput: token-bucket shaping must cut the
// server bandwidth spent on speculation relative to FIFO.
func TestShapedReducesSpecThroughput(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 8
	fifoRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindShaped, Rate: 0.1, Burst: 2}
	shapedRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spec throughput: fifo %.4f, shaped %.4f", fifoRes.SpecThroughput(), shapedRes.SpecThroughput())
	if shapedRes.SpecThroughput() >= fifoRes.SpecThroughput() {
		t.Errorf("shaping did not reduce speculative throughput: %.4f vs %.4f",
			shapedRes.SpecThroughput(), fifoRes.SpecThroughput())
	}
}

// TestSweepDisciplines covers the discipline sweep: one point per kind,
// deterministic across worker counts, FIFO point matching a direct run.
func TestSweepDisciplines(t *testing.T) {
	cfg := testConfig()
	cfg.Rounds = 40
	kinds := schedsrv.Kinds()
	a, err := Sweep(cfg, 2, 0, true, DisciplineAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(kinds) {
		t.Fatalf("got %d points, want %d", len(a), len(kinds))
	}
	for i, p := range a {
		if p.Labels[0] != string(kinds[i]) || p.Config.Sched.Kind != kinds[i] || p.Clients != cfg.Clients || p.Reps != 2 {
			t.Errorf("point %d = (%v, N=%d, reps=%d)", i, p.Labels, p.Clients, p.Reps)
		}
		if want := int64(cfg.Clients * cfg.Rounds * 2); p.Access.N() != want {
			t.Errorf("point %d merged %d access observations, want %d", i, p.Access.N(), want)
		}
	}
	b, err := Sweep(cfg, 2, 1, true, DisciplineAxis(kinds))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Access.Mean() != b[i].Access.Mean() || a[i].DemandAccess.Mean() != b[i].DemandAccess.Mean() {
			t.Errorf("point %d differs across worker counts", i)
		}
	}
}

func TestSweepDisciplinesBadAxis(t *testing.T) {
	cfg := testConfig()
	if _, err := Sweep(cfg, 1, 0, true, DisciplineAxis(nil)); !errors.Is(err, sweep.ErrBadSweep) {
		t.Errorf("empty axis: err = %v, want ErrBadSweep", err)
	}
	if _, err := Sweep(cfg, 1, 0, true, DisciplineAxis([]schedsrv.Kind{"lifo"})); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown kind: err = %v, want ErrBadConfig", err)
	}
	if _, err := Sweep(cfg, 0, 0, true, DisciplineAxis(schedsrv.Kinds())); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero reps: err = %v, want ErrBadConfig", err)
	}
}

// TestFIFOPromoteIsPureAccounting: promotion must not change FIFO timing —
// a run with the zero scheduling config matches the Sched-explicit FIFO.
func TestFIFOPromoteIsPureAccounting(t *testing.T) {
	cfg := testConfig()
	implicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindFIFO}
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Access.Mean() != explicit.Access.Mean() || implicit.Elapsed != explicit.Elapsed {
		t.Error("explicit FIFO config diverged from the zero-value default")
	}
}

// TestServerRequestsCountLogicalRequests: preemption restarts must not
// inflate ServerRequests — it equals admitted submissions exactly.
func TestServerRequestsCountLogicalRequests(t *testing.T) {
	cfg := testConfig()
	cfg.Clients = 8
	cfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("test needs preemptions to be meaningful")
	}
	var want int64
	for _, pc := range res.PerClient {
		want += pc.PrefetchIssued - pc.PrefetchDropped + pc.DemandFetches
	}
	if res.ServerRequests != want {
		t.Errorf("ServerRequests = %d, want %d admitted submissions (preemptions %d)",
			res.ServerRequests, want, res.Preemptions)
	}
}
