package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"prefetch/internal/multiclient"
)

// declared reads the metric names and units BENCHMARK.json declares for
// each trace mode: end_to_end for --trace 0, per_layer for --trace 1.
func declared(t *testing.T) [2]map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	var out [2]map[string]string
	for i, list := range [2][]entry{spec.EndToEnd, spec.PerLayer} {
		out[i] = map[string]string{}
		for _, e := range list {
			out[i][e.Name] = e.Unit
		}
	}
	return out
}

// summaryLine is the JSON object on the report's last line.
type summaryLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// parseReport splits a report into its printed metric lines and the
// JSON summary, failing on any line that is neither a note nor a metric.
func parseReport(t *testing.T, out string) (map[string]metric, summaryLine) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	printed := map[string]metric{}
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed metric line %q", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		if _, dup := printed[f[0]]; dup {
			t.Errorf("metric %s printed twice", f[0])
		}
		printed[f[0]] = metric{f[0], v, f[2]}
	}
	return printed, sum
}

// TestSmallWorkloads runs every workload in both modes at a small size
// and checks that each declared metric is printed once with its unit,
// that the JSON summary carries exactly the printed values, and that
// every run passed the gate.
func TestSmallWorkloads(t *testing.T) {
	want := declared(t)
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			ok, err := benchmark(options{workload: wl.name, seed: 7, trace: trace, small: true}, &out)
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.name, trace, err)
			}
			if !ok {
				t.Errorf("%s trace %d: runs failed the gate\n%s", wl.name, trace, out.String())
			}
			printed, sum := parseReport(t, out.String())
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace %d: summary correct=%v attempted=%d failed=%d",
					wl.name, trace, sum.Correct, sum.Attempted, sum.Failed)
			}
			if len(printed) != len(want[trace]) || len(sum.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %d: printed %d, JSON %d, declared %d metrics",
					wl.name, trace, len(printed), len(sum.Metrics), len(want[trace]))
			}
			var shares float64
			for name, unit := range want[trace] {
				p, ok := printed[name]
				if !ok {
					t.Errorf("%s trace %d: %s not printed", wl.name, trace, name)
					continue
				}
				j := sum.Metrics[name]
				if p.unit != unit || j.Unit != unit {
					t.Errorf("%s: %s unit printed %q, JSON %q, declared %q", wl.name, name, p.unit, j.Unit, unit)
				}
				if p.value != j.Value {
					t.Errorf("%s: %s printed %v, JSON %v", wl.name, name, p.value, j.Value)
				}
				// phase_b_s is a difference of two host timings; at this
				// size Phase B is a few milliseconds and noise can push it
				// below 0.
				negative := p.value < 0 && name != "multiclient.phase_b_s"
				if math.IsNaN(p.value) || math.IsInf(p.value, 0) || negative {
					t.Errorf("%s: %s = %v", wl.name, name, p.value)
				}
				if strings.HasPrefix(name, "share.") {
					shares += p.value
				}
			}
			if trace == 1 && math.Abs(shares-1) > 1e-9 {
				t.Errorf("%s: share.* sum to %v, want 1", wl.name, shares)
			}
		}
	}
}

// TestPerturbedFingerprintFails shows the gate fires: against a wrong
// reference fingerprint every run counts as failed.
func TestPerturbedFingerprintFails(t *testing.T) {
	for trace := 0; trace <= 1; trace++ {
		var out bytes.Buffer
		ok, err := benchmark(options{workload: "fleet-shared", seed: 7, trace: trace, small: true,
			expect: "00000000000000000000000000000000"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("trace %d: perturbed fingerprint passed", trace)
		}
		_, sum := parseReport(t, out.String())
		if sum.Correct || sum.Attempted < 1 || sum.Failed != sum.Attempted {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, sum.Correct, sum.Attempted, sum.Failed)
		}
		if trace == 0 && sum.Metrics["pass_frac"].Value != 0 {
			t.Errorf("trace 0: pass_frac=%v, want 0", sum.Metrics["pass_frac"].Value)
		}
	}
}

// TestStrictRefusesUnrecordedSeed: with --strict a seed that has no
// recorded fingerprint fails every run.
func TestStrictRefusesUnrecordedSeed(t *testing.T) {
	wl := workloads[2]
	cfg := wl.config(7, true)
	res, err := wl.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate(wl.name, 8, true, false)
	if ok, _ := g.check(cfg, res, nil); ok || g.failed != 1 {
		t.Fatalf("strict gate passed an unrecorded run: %+v", g)
	}
	g = newGate(wl.name, 8, false, false)
	for i := 0; i < 2; i++ {
		if ok, err := g.check(cfg, res, nil); !ok {
			t.Fatalf("self-checking gate failed repeat %d: %v", i, err)
		}
	}
}

// TestFingerprintSeesEveryField: one seed replays to one fingerprint,
// and moving any reported value — an aggregate float by one ulp, a
// per-client counter by one — changes it.
func TestFingerprintSeesEveryField(t *testing.T) {
	wl := workloads[0]
	cfg := wl.config(7, true)
	first, err := wl.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := wl.run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprint(first)
	if fingerprint(again) != base {
		t.Fatal("two runs of one seed have different fingerprints")
	}
	res := again.(multiclient.Result)
	res.Elapsed = math.Nextafter(res.Elapsed, math.Inf(1))
	if fingerprint(res) == base {
		t.Error("one ulp of Elapsed kept the fingerprint")
	}
	res = first.(multiclient.Result)
	res.PerClient[len(res.PerClient)-1].ZeroWaitRounds++
	if fingerprint(res) == base {
		t.Error("a per-client counter kept the fingerprint")
	}
}
