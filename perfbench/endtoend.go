package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
)

const (
	minRuns = 3  // untraced runs per --trace 0 invocation, at least
	maxRuns = 50 // and at most
	// probeBudget is the host time spent on set-up probes per run;
	// cheap set-ups are probed several times so their median settles.
	probeBudget = 200 * time.Millisecond
	maxProbes   = 5
)

// errSetupDone aborts a run at its first simulated event.
var errSetupDone = errors.New("perfbench: set-up probe reached its first event")

// firstEvent is the benchmark's set-up tracer: it stamps the host time
// of the first simulated event and, as a probe, aborts the run there.
// Run consults no tracer before its first event, so the stamp measures
// site generation, Phase-A scripts and client/server construction, and
// nothing of the traced event loop.
type firstEvent struct {
	start time.Time
	at    time.Duration // 0 until the first event
	abort bool
}

func (f *firstEvent) Enabled() bool { return true }

func (f *firstEvent) Emit(obs.Event) {
	if f.at == 0 {
		f.at = time.Since(f.start)
	}
	if f.abort {
		panic(errSetupDone)
	}
}

// probeSetup times one run from the call into Run until its first event.
func probeSetup(wl *workload, cfg multiclient.Config) (d time.Duration, err error) {
	p := &firstEvent{abort: true}
	defer func() {
		if r := recover(); r != nil {
			if r != errSetupDone {
				panic(r)
			}
			d = p.at
		}
	}()
	p.start = time.Now()
	if _, err := wl.run(cfg, p); err != nil {
		return 0, err
	}
	return 0, errors.New("run finished without a simulated event")
}

// endToEnd measures the end-to-end metrics on untraced runs: at least
// minRuns runs, more while --seconds lasts, cycling through the seed's
// sub-seeds, with set-up probes before them. Every run is checked by the
// gate.
func endToEnd(wl *workload, opt options, rep *report) error {
	first := wl.config(subSeed(opt.seed, 0), opt.small)
	clientRounds := float64(first.Clients) * float64(first.Rounds)
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var rates, setups, allocs, walls, rsss []float64
	for i := 0; i < maxRuns && (i < minRuns || time.Now().Before(deadline)); i++ {
		cfg := wl.config(subSeed(opt.seed, i%subSeeds), opt.small)
		// Probe set-up in the first minRuns rounds, and in every round
		// while set-up is cheap next to the probe budget.
		var spent time.Duration
		probe := i < minRuns || median(setups) < probeBudget.Seconds()
		for k := 0; probe && k < maxProbes && (k == 0 || spent < probeBudget); k++ {
			runtime.GC()
			d, err := probeSetup(wl, cfg)
			if err != nil {
				return fmt.Errorf("set-up probe: %w", err)
			}
			spent += d
			setups = append(setups, d.Seconds())
		}

		debug.FreeOSMemory() // start every run from the same resident set
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res any
		var runErr error
		var wall time.Duration
		rss, err := peakRSSDuring(func() {
			start := time.Now()
			res, runErr = wl.run(cfg, nil)
			wall = time.Since(start)
			runtime.ReadMemStats(&after)
		})
		if err != nil {
			return err
		}
		if ok, err := rep.gate.check(cfg, res, runErr); !ok {
			rep.notef("run %d (Config.Seed %d) failed the gate: %v", i, cfg.Seed, err)
			continue
		}
		walls = append(walls, wall.Seconds())
		rsss = append(rsss, rss)
		rates = append(rates, clientRounds/wall.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/clientRounds)
	}
	passed := rep.gate.attempted - rep.gate.failed
	rep.notef("%d untraced runs (%d passed), %d set-up probes; client-rounds per run %.0f",
		rep.gate.attempted, passed, len(setups), clientRounds)
	rep.notef("failed_frac %d/%d", rep.gate.failed, rep.gate.attempted)
	rep.notef("run walls (s): %.3f", walls)
	rep.notef("run peak RSS (MB): %.1f", rsss)
	rep.notef("set-up probes (s): %.4f", setups)
	if passed == 0 {
		// Nothing valid to time; report the failure with placeholder
		// figures so the summary line still carries every metric.
		rates, allocs, rsss = []float64{0}, []float64{0}, []float64{0}
	}
	rep.add("client_rounds_per_s", median(rates), "1/s")
	rep.add("setup_s", median(setups), "s")
	rep.add("peak_rss_mb", median(rsss), "MB")
	rep.add("alloc_bytes_per_client_round", median(allocs), "B")
	rep.add("pass_frac", float64(passed)/float64(rep.gate.attempted), "ratio")
	return nil
}

// rssPollEvery is the resident-set sampling period during a run.
const rssPollEvery = 5 * time.Millisecond

// peakRSSDuring runs f while sampling this process's resident set from
// /proc/self/statm, and returns the largest sample in MB.
func peakRSSDuring(f func()) (float64, error) {
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer statm.Close()
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var max int64
		buf := make([]byte, 128)
		tick := time.NewTicker(rssPollEvery)
		defer tick.Stop()
		for {
			n, _ := statm.ReadAt(buf, 0)
			if pages := residentPages(buf[:n]); pages > max {
				max = pages
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	pages := <-peak
	if pages == 0 {
		return 0, errors.New("peak RSS: no sample read from /proc/self/statm")
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// residentPages parses the second field of /proc/self/statm without
// allocating, so sampling adds nothing to the run's allocation count.
func residentPages(statm []byte) int64 {
	i := bytes.IndexByte(statm, ' ')
	if i < 0 {
		return 0
	}
	var pages int64
	for _, c := range statm[i+1:] {
		if c < '0' || c > '9' {
			break
		}
		pages = pages*10 + int64(c-'0')
	}
	return pages
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
