// Command perfbench is the simulator's end-to-end and per-layer
// benchmark. It runs one named workload through the public entry points
// multiclient.Run and fleet.Run and prints one metric per line, then a
// JSON summary as the last line of standard output.
//
//	perfbench --workload contended-scale --seed 7 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics on untraced runs. --trace 1
// measures the per-layer metrics: a traced run counted through the
// benchmark's own obs.Tracer, a CPU profile of an untraced run, and
// timed replays of each layer's public functions on inputs taken from
// the workload. See NOTES.md for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	strict   bool   // an unrecorded seed fails instead of self-checking
	small    bool   // shrunken workload (self-test)
	expect   string // overrides the reference fingerprint (self-test)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects one invocation's output.
type report struct {
	w       io.Writer
	gate    *gate
	metrics []metric
}

func (r *report) notef(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// finish prints every metric line and the JSON summary, and reports
// whether every attempted run passed the correctness gate.
func (r *report) finish() (bool, error) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   r.gate.attempted > 0 && r.gate.failed == 0,
		Attempted: r.gate.attempted,
		Failed:    r.gate.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range r.metrics {
		fmt.Fprintf(r.w, "%-36s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(r.w, "%s\n", line)
	return out.Correct, nil
}

// benchmark runs one invocation, writing the report to w.
func benchmark(opt options, w io.Writer) (bool, error) {
	wl, err := findWorkload(opt.workload)
	if err != nil {
		return false, err
	}
	g := newGate(wl.name, opt.seed, opt.strict, opt.small)
	if opt.expect != "" {
		for k := 0; k < subSeeds; k++ {
			g.want[subSeed(opt.seed, k)] = opt.expect
		}
		g.recorded = true
	}
	rep := &report{w: w, gate: g}
	rep.notef("perfbench workload=%s seed=%d trace=%d gomaxprocs=%d %s",
		wl.name, opt.seed, opt.trace, runtime.GOMAXPROCS(0), runtime.Version())
	rep.notef("fingerprint reference: %s", g.source())
	switch opt.trace {
	case 0:
		err = endToEnd(wl, opt, rep)
	case 1:
		err = perLayer(wl, opt, rep)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", opt.trace)
	}
	if err != nil {
		return false, err
	}
	return rep.finish()
}

// record prints the fingerprints of a seed's sub-seeds as a
// fingerprints.json entry.
func record(opt options, w io.Writer) error {
	wl, err := findWorkload(opt.workload)
	if err != nil {
		return err
	}
	var fps []string
	for k := 0; k < subSeeds; k++ {
		cfg := wl.config(subSeed(opt.seed, k), opt.small)
		res, err := wl.run(cfg, nil)
		if err == nil {
			err = conserved(res, cfg)
		}
		if err != nil {
			return fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
		fps = append(fps, fingerprint(res))
	}
	entry, err := json.Marshal(map[string][]string{strconv.FormatUint(opt.seed, 10): fps})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%q: %s\n", wl.name, entry)
	return nil
}

func main() {
	var opt options
	var rec bool
	flag.StringVar(&opt.workload, "workload", "", "workload name: contended-scale, learned-drift or fleet-shared")
	flag.Uint64Var(&opt.seed, "seed", 7, "benchmark seed; run k of an invocation simulates Config.Seed = seed*4 + k%4")
	flag.Float64Var(&opt.seconds, "seconds", 15, "measurement time for --trace 0 (at least three runs are made)")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.BoolVar(&opt.strict, "strict", false, "count a run as failed when no fingerprint is recorded for (workload, seed)")
	flag.BoolVar(&rec, "record", false, "print the run's fingerprint for fingerprints.json and exit")
	flag.Parse()
	if opt.workload == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if rec {
		if err := record(opt, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := benchmark(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: some runs failed the gate")
		os.Exit(1)
	}
}
