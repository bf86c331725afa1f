package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"prefetch/internal/obs"
)

// TestMain lets the test binary impersonate the real prefetchsim process
// when re-exec'd with PREFETCHSIM_BE_MAIN=1, so tests can assert on the
// actual process exit status rather than only on run()'s error value.
func TestMain(m *testing.M) {
	if os.Getenv("PREFETCHSIM_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOut drives run() and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestRunPrefetchOnlyMode(t *testing.T) {
	out := runOut(t, "-mode", "prefetch-only", "-n", "5", "-iters", "300", "-policies", "none,skp")
	for _, want := range []string{"policy", "mean T", "none", "skp"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPrefetchOnlyRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	runOut(t, "-mode", "prefetch-only", "-n", "5", "-iters", "200", "-policies", "skp", "-record", trace)
	out := runOut(t, "-mode", "prefetch-only", "-replay", trace, "-policies", "skp")
	if !strings.Contains(out, "skp") {
		t.Errorf("replay output missing skp:\n%s", out)
	}
}

func TestRunCacheMode(t *testing.T) {
	out := runOut(t, "-mode", "cache", "-states", "30", "-requests", "500", "-cachesize", "10", "-policies", "all")
	for _, want := range []string{"policy", "hit%", "SKP+Pr"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSessionMode(t *testing.T) {
	out := runOut(t, "-mode", "session", "-states", "15", "-requests", "150")
	for _, want := range []string{"planner", "skp-depth2", "net/request"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientMode(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "2", "-rounds", "30", "-serverconc", "2", "-servercache", "20")
	for _, want := range []string{"client", "queue wait", "improve%", "server utilization", "server cache hit rate", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "1,2", "-rounds", "20", "-reps", "2")
	for _, want := range []string{"sweep over clients", "clients", "util%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 5; got != want {
		t.Errorf("sweep printed %d lines, want %d:\n%s", got, want, out)
	}
}

func TestRunHelpSucceeds(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-h"}, &sb); err != nil {
		t.Fatalf("run(-h): %v", err)
	}
	if !strings.Contains(sb.String(), "Usage of prefetchsim") {
		t.Errorf("help output missing usage:\n%s", sb.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-mode", "nope"},
		{"-mode", "prefetch-only", "-policies", "unknown"},
		{"-mode", "prefetch-only", "-gen", "unknown"},
		{"-mode", "multiclient", "-clients", "zero"},
		{"-mode", "multiclient", "-clients", ""},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad input", args)
		}
	}
}

func TestRunMultiClientDisciplines(t *testing.T) {
	for _, disc := range []string{"priority", "wfq", "shaped"} {
		out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25", "-discipline", disc)
		if !strings.Contains(out, "discipline "+disc) {
			t.Errorf("%s output missing discipline line:\n%s", disc, out)
		}
		if !strings.Contains(out, "demand access") {
			t.Errorf("%s output missing demand access:\n%s", disc, out)
		}
	}
}

func TestRunMultiClientDisciplineDeterminism(t *testing.T) {
	for _, disc := range []string{"fifo", "priority", "wfq", "shaped"} {
		args := []string{"-mode", "multiclient", "-clients", "3", "-rounds", "25", "-discipline", disc, "-seed", "9"}
		if a, b := runOut(t, args...), runOut(t, args...); a != b {
			t.Errorf("%s: two identical invocations differ:\n%s\n---\n%s", disc, a, b)
		}
	}
}

func TestRunMultiClientShardsFlag(t *testing.T) {
	// Phase A runs one shard worker per GOMAXPROCS (at most one per
	// client): the worker count must never reach the output, and the
	// retired -shards knob is refused as an unknown flag.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	args := []string{"-mode", "multiclient", "-clients", "7", "-rounds", "25", "-seed", "9", "-predictor", "ppm"}
	runtime.GOMAXPROCS(1)
	want := runOut(t, args...)
	for _, procs := range []int{3, 7} {
		runtime.GOMAXPROCS(procs)
		if got := runOut(t, args...); got != want {
			t.Errorf("GOMAXPROCS=%d output differs from GOMAXPROCS=1:\n%s\n---\n%s", procs, got, want)
		}
	}
	if err := run(append(args, "-shards", "2"), io.Discard); err == nil {
		t.Error("retired -shards flag accepted")
	}
}

func TestRunMultiClientDisciplineSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-reps", "2", "-discipline", "all")
	for _, want := range []string{"discipline sweep", "demand T", "spec/s", "fifo", "priority", "wfq", "shaped"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientPreemptAndAdmission(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "4", "-rounds", "30",
		"-discipline", "priority", "-preempt", "-admit-util", "0.6", "-admit-window", "25")
	for _, want := range []string{"discipline priority", "admission:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientWeights(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-discipline", "wfq", "-weights", "8:1")
	if !strings.Contains(out, "discipline wfq") {
		t.Errorf("output missing wfq discipline line:\n%s", out)
	}
}

func TestRunMultiClientBadScheduling(t *testing.T) {
	cases := [][]string{
		{"-mode", "multiclient", "-discipline", "lifo"},
		{"-mode", "multiclient", "-discipline", ""},
		{"-mode", "multiclient", "-weights", "4"},
		{"-mode", "multiclient", "-weights", "0:1"},
		{"-mode", "multiclient", "-discipline", "fifo", "-preempt"}, // preempt needs priority
		{"-mode", "multiclient", "-admit-util", "1.5"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad scheduling input", args)
		}
	}
}

func TestRunMultiClientDisciplineClientSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "2,3", "-rounds", "20", "-reps", "2", "-discipline", "priority")
	for _, want := range []string{"discipline priority", "demand T", "spec/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("discipline client-sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientBadShaping(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "multiclient", "-rate", "0"},
		{"-mode", "multiclient", "-burst", "-1"},
		{"-mode", "multiclient", "-admit-window", "0"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad shaping input", args)
		}
	}
}

func TestRunMultiClientNaNRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "multiclient", "-discipline", "wfq", "-weights", "NaN:1"},
		{"-mode", "multiclient", "-discipline", "shaped", "-rate", "NaN"},
		{"-mode", "multiclient", "-admit-util", "NaN"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted NaN input", args)
		}
	}
}

func TestRunMultiClientAdmitDeferRequiresUtil(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "multiclient", "-admit-defer"}, &sb); err == nil {
		t.Error("-admit-defer without -admit-util was accepted as a silent no-op")
	}
}

// exitStatus re-execs the test binary as prefetchsim with args and
// returns the process exit code.
func exitStatus(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PREFETCHSIM_BE_MAIN=1")
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("re-exec %v: %v", args, err)
	}
	return exitErr.ExitCode()
}

// TestExitStatusUnknownDiscipline: an unknown -discipline or -controller
// value must exit non-zero in EVERY mode — including the modes that do
// not consume the flag, where it used to be silently ignored (exit 0).
func TestExitStatusUnknownDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	bad := [][]string{
		{"-mode", "multiclient", "-clients", "2", "-rounds", "5", "-discipline", "lifo"},
		{"-mode", "prefetch-only", "-discipline", "lifo"},
		{"-mode", "cache", "-discipline", "lifo"},
		{"-mode", "prefetch-only", "-controller", "pid"},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "5", "-controller", "pid"},
		{"-mode", "nope"},
	}
	for _, args := range bad {
		if code := exitStatus(t, args...); code == 0 {
			t.Errorf("prefetchsim %v exited 0, want non-zero", args)
		}
	}
	ok := [][]string{
		{"-mode", "prefetch-only", "-n", "4", "-iters", "50", "-policies", "skp"},
		{"-h"},
	}
	for _, args := range ok {
		if code := exitStatus(t, args...); code != 0 {
			t.Errorf("prefetchsim %v exited %d, want 0", args, code)
		}
	}
}

// TestRunRejectsIgnoredBadFlagValues: the same validation at the run()
// level, so the fast in-process tests cover every mode too.
func TestRunRejectsIgnoredBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "prefetch-only", "-discipline", "lifo"},
		{"-mode", "cache", "-discipline", ""},
		{"-mode", "session", "-controller", "pid"},
		{"-mode", "prefetch-only", "-controller", ""},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted a bad flag value for an unused flag", args)
		}
	}
}

func TestRunMultiClientController(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "4", "-rounds", "30", "-controller", "aimd")
	for _, want := range []string{"controller aimd", "mean λ", "demand access"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A static controller with a non-zero λ0 also gets the summary line.
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-lambda0", "0.5")
	if !strings.Contains(out, "controller static") {
		t.Errorf("output missing static controller line:\n%s", out)
	}
}

func TestRunMultiClientControllerSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-reps", "2", "-controller", "all")
	for _, want := range []string{"controller sweep", "mean λ", "static", "aimd", "target-util", "delay-gradient"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientControllerDeterminism(t *testing.T) {
	for _, ctl := range []string{"aimd", "target-util", "delay-gradient"} {
		args := []string{"-mode", "multiclient", "-clients", "3", "-rounds", "25", "-controller", ctl, "-seed", "9"}
		if a, b := runOut(t, args...), runOut(t, args...); a != b {
			t.Errorf("%s: two identical invocations differ:\n%s\n---\n%s", ctl, a, b)
		}
	}
}

func TestRunMultiClientBadController(t *testing.T) {
	cases := [][]string{
		{"-mode", "multiclient", "-controller", "pid"},
		{"-mode", "multiclient", "-controller", ""},
		{"-mode", "multiclient", "-lambda0", "-1"},
		{"-mode", "multiclient", "-lambda0", "NaN"},
		{"-mode", "multiclient", "-target-util", "0"},
		{"-mode", "multiclient", "-target-util", "1.2"},
		{"-mode", "multiclient", "-target-util", "NaN"},
		{"-mode", "multiclient", "-discipline", "all", "-controller", "all"}, // one axis at a time
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad controller input", args)
		}
	}
}

func TestRunMultiClientControllerWithDiscipline(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20",
		"-discipline", "priority", "-controller", "aimd")
	for _, want := range []string{"discipline priority", "controller aimd"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Discipline sweep under a fixed adaptive controller.
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-discipline", "all", "-controller", "aimd")
	if !strings.Contains(out, "discipline sweep") {
		t.Errorf("discipline sweep missing under adaptive controller:\n%s", out)
	}
}

// TestRunMultiClientControllerClientSweep: a non-default controller must
// be visible in the multi-N sweep output (both table variants) and in
// the discipline sweep header.
func TestRunMultiClientControllerClientSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "2,3", "-rounds", "15", "-reps", "2", "-controller", "aimd")
	if !strings.Contains(out, "controller aimd") {
		t.Errorf("plain client sweep hides the active controller:\n%s", out)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "2,3", "-rounds", "15", "-reps", "2",
		"-discipline", "priority", "-controller", "aimd")
	if !strings.Contains(out, "controller aimd") {
		t.Errorf("extended client sweep hides the active controller:\n%s", out)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-discipline", "all", "-controller", "aimd")
	if !strings.Contains(out, "controller aimd") {
		t.Errorf("discipline sweep hides the active controller:\n%s", out)
	}
	// The default static λ=0 run must stay byte-identical: no note.
	out = runOut(t, "-mode", "multiclient", "-clients", "1,2", "-rounds", "20", "-reps", "2")
	if strings.Contains(out, "controller") {
		t.Errorf("default sweep grew a controller note:\n%s", out)
	}
}

// TestRunMultiClientPredictorOracleMatchesDefault: `-predictor oracle`
// must produce byte-identical output to the default invocation — the
// prediction subsystem replays the pre-subsystem timelines bit for bit.
func TestRunMultiClientPredictorOracleMatchesDefault(t *testing.T) {
	base := []string{"-mode", "multiclient", "-clients", "4", "-rounds", "30", "-seed", "9"}
	for _, extra := range [][]string{
		nil,
		{"-discipline", "priority"},
		{"-controller", "aimd"},
		{"-discipline", "wfq", "-controller", "target-util"},
	} {
		def := runOut(t, append(append([]string{}, base...), extra...)...)
		orc := runOut(t, append(append([]string{}, base...), append(extra, "-predictor", "oracle")...)...)
		if def != orc {
			t.Errorf("-predictor oracle diverged from default (%v):\n%s\n---\n%s", extra, def, orc)
		}
	}
}

func TestRunMultiClientPredictor(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "4", "-rounds", "30", "-predictor", "depgraph")
	for _, want := range []string{"predictor depgraph", "L1 error", "wasted-prefetch", "hit ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The ppm predictor takes its order from -ppm-order.
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-predictor", "ppm", "-ppm-order", "3")
	if !strings.Contains(out, "predictor ppm") {
		t.Errorf("output missing ppm predictor line:\n%s", out)
	}
}

func TestRunMultiClientPredictorSweep(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-reps", "2", "-predictor", "all")
	for _, want := range []string{"predictor sweep", "L1 err", "waste%", "hit%", "oracle", "depgraph", "ppm", "shared"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientPredictorControllerGrid(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-reps", "2",
		"-predictor", "oracle,depgraph", "-controller", "static,aimd")
	for _, want := range []string{"controller × predictor sweep", "Pareto frontier", "controller static", "controller aimd", "pareto", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientWarmCache(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "4", "-rounds", "30",
		"-predictor", "shared", "-servercache", "20", "-warm-cache")
	for _, want := range []string{"predictor shared", "cache warming", "pre-admitted", "warm hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiClientPredictorDeterminism(t *testing.T) {
	for _, pred := range []string{"depgraph", "ppm", "shared"} {
		args := []string{"-mode", "multiclient", "-clients", "3", "-rounds", "25", "-predictor", pred, "-seed", "9"}
		if a, b := runOut(t, args...), runOut(t, args...); a != b {
			t.Errorf("%s: two identical invocations differ:\n%s\n---\n%s", pred, a, b)
		}
	}
}

func TestRunMultiClientBadPredictor(t *testing.T) {
	cases := [][]string{
		{"-mode", "multiclient", "-predictor", "lstm"},
		{"-mode", "multiclient", "-predictor", ""},
		{"-mode", "multiclient", "-predictor", "ppm", "-ppm-order", "0"},
		{"-mode", "multiclient", "-predictor", "depgraph", "-cold-start", "oracle"},
		{"-mode", "multiclient", "-warm-cache"},                             // needs shared + cache
		{"-mode", "multiclient", "-predictor", "shared", "-warm-cache"},     // needs cache
		{"-mode", "multiclient", "-servercache", "20", "-warm-cache"},       // needs shared
		{"-mode", "multiclient", "-discipline", "all", "-predictor", "all"}, // axis conflict
		// Unused-flag validation in other modes.
		{"-mode", "prefetch-only", "-predictor", "lstm"},
		{"-mode", "cache", "-predictor", ""},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad predictor input", args)
		}
	}
}

// TestRunMultiClientPredictorWithDiscipline: a fixed learned predictor
// must be visible in discipline sweeps and client sweeps.
func TestRunMultiClientPredictorWithDiscipline(t *testing.T) {
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-discipline", "all", "-predictor", "depgraph")
	for _, want := range []string{"discipline sweep", "predictor depgraph"} {
		if !strings.Contains(out, want) {
			t.Errorf("discipline sweep output missing %q:\n%s", want, out)
		}
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "2,3", "-rounds", "15", "-reps", "2", "-predictor", "depgraph")
	if !strings.Contains(out, "predictor depgraph") {
		t.Errorf("client sweep hides the active predictor:\n%s", out)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-controller", "all", "-predictor", "depgraph")
	if !strings.Contains(out, "predictor depgraph") {
		t.Errorf("controller sweep hides the active predictor:\n%s", out)
	}
}

// TestRunMultiClientDrift: a non-stationary run is flagged in every
// header, replays bit for bit, and the default (stationary) output grows
// no drift note.
func TestRunMultiClientDrift(t *testing.T) {
	args := []string{"-mode", "multiclient", "-clients", "3", "-rounds", "25", "-drift-every", "5", "-seed", "9"}
	out := runOut(t, args...)
	if !strings.Contains(out, "drift every 5 rounds") {
		t.Errorf("drift run missing the drift note:\n%s", out)
	}
	if again := runOut(t, args...); out != again {
		t.Errorf("drifting run did not replay:\n%s\n---\n%s", out, again)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25", "-seed", "9")
	if strings.Contains(out, "drift") {
		t.Errorf("default run grew a drift note:\n%s", out)
	}
	// The note shows up in sweep headers too.
	out = runOut(t, "-mode", "multiclient", "-clients", "2,3", "-rounds", "15", "-reps", "2", "-drift-every", "5")
	if !strings.Contains(out, "drift every 5 rounds") {
		t.Errorf("client sweep hides the drift note:\n%s", out)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-drift-every", "5", "-predictor", "oracle,decay", "-controller", "static,aimd")
	if !strings.Contains(out, "drift every 5 rounds") {
		t.Errorf("grid sweep hides the drift note:\n%s", out)
	}
}

// TestRunMultiClientDriftPredictors: the drift-tracking predictors run
// end to end, alone and in sweeps.
func TestRunMultiClientDriftPredictors(t *testing.T) {
	for _, pred := range []string{"decay", "mixture", "ppm-escape"} {
		out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25",
			"-drift-every", "8", "-predictor", pred)
		if !strings.Contains(out, "predictor "+pred) {
			t.Errorf("output missing %q predictor line:\n%s", pred, out)
		}
	}
	out := runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "20", "-reps", "2", "-predictor", "all")
	for _, want := range []string{"decay", "mixture", "ppm-escape"} {
		if !strings.Contains(out, want) {
			t.Errorf("predictor sweep missing %q:\n%s", want, out)
		}
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25",
		"-predictor", "decay", "-decay-half-life", "60")
	if !strings.Contains(out, "predictor decay") {
		t.Errorf("half-life run missing decay line:\n%s", out)
	}
	out = runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25",
		"-predictor", "mixture", "-mix-weight", "0.5")
	if !strings.Contains(out, "predictor mixture") {
		t.Errorf("mix-weight run missing mixture line:\n%s", out)
	}
}

// TestRunRejectsBadDriftFlags: the drift and drift-predictor tunables
// are validated in every mode — a typo'd value must never be silently
// ignored by a mode that does not consume it.
func TestRunRejectsBadDriftFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "multiclient", "-drift-every", "-1"},
		{"-mode", "prefetch-only", "-drift-every", "-3"},
		{"-mode", "multiclient", "-decay-half-life", "0"},
		{"-mode", "multiclient", "-decay-half-life", "-5"},
		{"-mode", "multiclient", "-decay-half-life", "NaN"},
		{"-mode", "multiclient", "-decay-half-life", "Inf"},
		{"-mode", "cache", "-decay-half-life", "0"},
		{"-mode", "prefetch-only", "-decay-half-life", "Inf"},
		{"-mode", "multiclient", "-mix-weight", "0"},
		{"-mode", "multiclient", "-mix-weight", "1"},
		{"-mode", "multiclient", "-mix-weight", "NaN"},
		{"-mode", "session", "-mix-weight", "2"},
		{"-mode", "multiclient", "-predictor", "decay", "-ppm-order", "0"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad drift input", args)
		}
	}
}

// TestExitStatusBadDriftFlags: the same validation at the process level.
func TestExitStatusBadDriftFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	bad := [][]string{
		{"-mode", "prefetch-only", "-drift-every", "-1"},
		{"-mode", "cache", "-mix-weight", "7"},
		{"-mode", "prefetch-only", "-decay-half-life", "-2"},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "5", "-predictor", "markov"},
	}
	for _, args := range bad {
		if code := exitStatus(t, args...); code == 0 {
			t.Errorf("prefetchsim %v exited 0, want non-zero", args)
		}
	}
}

// traceFlagModes are the mode invocations every observability flag must
// work with — tracing is not a multiclient-only feature.
var traceFlagModes = [][]string{
	{"-mode", "prefetch-only", "-n", "5", "-iters", "100", "-policies", "none,skp"},
	{"-mode", "cache", "-states", "20", "-requests", "200", "-cachesize", "8", "-policies", "all"},
	{"-mode", "session", "-states", "12", "-requests", "100"},
	{"-mode", "multiclient", "-clients", "2", "-rounds", "20"},
}

func TestRunTraceAndMetricsOutAllModes(t *testing.T) {
	for _, mode := range traceFlagModes {
		dir := t.TempDir()
		trace := filepath.Join(dir, "trace.jsonl")
		metrics := filepath.Join(dir, "metrics.json")
		args := append(append([]string{}, mode...), "-trace-out", trace, "-metrics-out", metrics)
		runOut(t, args...)
		f, err := os.Open(trace)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		events, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%v: trace does not parse: %v", mode, err)
		}
		if len(events) == 0 {
			t.Errorf("%v: empty trace", mode)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !strings.Contains(string(data), "counters") {
			t.Errorf("%v: metrics file missing counters:\n%.200s", mode, data)
		}
	}
}

// TestRunRefusesOverwrite: -record, -trace-out, and -metrics-out must
// refuse to clobber an existing file unless -force is passed.
func TestRunRefusesOverwrite(t *testing.T) {
	existing := filepath.Join(t.TempDir(), "existing")
	if err := os.WriteFile(existing, []byte("precious\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-mode", "prefetch-only", "-n", "4", "-iters", "50", "-policies", "skp", "-record", existing},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "10", "-trace-out", existing},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "10", "-metrics-out", existing},
	}
	for _, args := range cases {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "-force") {
			t.Errorf("run(%v) = %v, want overwrite refusal naming -force", args, err)
		}
		if data, rerr := os.ReadFile(existing); rerr != nil || string(data) != "precious\n" {
			t.Fatalf("run(%v) clobbered the existing file: %q %v", args, data, rerr)
		}
	}
	// With -force each of them overwrites.
	for _, args := range cases {
		var sb strings.Builder
		if err := run(append(append([]string{}, args...), "-force"), &sb); err != nil {
			t.Errorf("run(%v -force): %v", args, err)
		}
		if err := os.WriteFile(existing, []byte("precious\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExitStatusOverwriteRefused: the refusal must surface as a
// non-zero process exit, not only as an in-process error value.
func TestExitStatusOverwriteRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	existing := filepath.Join(t.TempDir(), "existing")
	if err := os.WriteFile(existing, []byte("precious\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := [][]string{
		{"-mode", "prefetch-only", "-n", "4", "-iters", "50", "-policies", "skp", "-record", existing},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "5", "-trace-out", existing},
	}
	for _, args := range bad {
		if code := exitStatus(t, args...); code == 0 {
			t.Errorf("prefetchsim %v exited 0, want non-zero", args)
		}
	}
	fresh := filepath.Join(t.TempDir(), "fresh.jsonl")
	ok := []string{"-mode", "multiclient", "-clients", "2", "-rounds", "5", "-trace-out", fresh}
	if code := exitStatus(t, ok...); code != 0 {
		t.Errorf("prefetchsim %v exited %d, want 0", ok, code)
	}
}

// TestRunTraceRejectsSweeps: a trace describes ONE run; sweep axes must
// be rejected rather than silently interleaving several runs.
func TestRunTraceRejectsSweeps(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	cases := [][]string{
		{"-mode", "multiclient", "-clients", "1,2", "-rounds", "10", "-trace-out", trace},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "10", "-discipline", "all", "-trace-out", trace},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "10", "-controller", "all", "-trace-out", trace},
		{"-mode", "multiclient", "-clients", "2", "-rounds", "10", "-predictor", "all", "-metrics-out", trace},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted tracing a sweep", args)
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	runOut(t, "-mode", "multiclient", "-clients", "2", "-rounds", "10",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunFleetMode(t *testing.T) {
	out := runOut(t, "-mode", "fleet", "-clients", "3", "-rounds", "20", "-replicas", "2", "-router", "hash")
	for _, want := range []string{"fleet: 2 replicas", "router hash", "replica", "requests", "downtime", "demand access", "fleet utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Without failure injection there is no availability story to tell.
	if strings.Contains(out, "availability") {
		t.Errorf("failure-free run grew an availability line:\n%s", out)
	}
}

func TestRunFleetFailures(t *testing.T) {
	out := runOut(t, "-mode", "fleet", "-clients", "4", "-rounds", "40", "-serverconc", "1", "-seed", "3",
		"-replicas", "3", "-router", "hash", "-fail-every", "40", "-recover-after", "15")
	for _, want := range []string{"fail every 40, recover after 15", "availability", "failures", "re-routed", "transfers lost"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFleetDeterminism(t *testing.T) {
	for _, router := range []string{"round-robin", "least-loaded", "hash"} {
		args := []string{"-mode", "fleet", "-clients", "3", "-rounds", "25", "-seed", "9",
			"-replicas", "3", "-router", router, "-fail-every", "30", "-recover-after", "10"}
		if a, b := runOut(t, args...), runOut(t, args...); a != b {
			t.Errorf("%s: two identical invocations differ:\n%s\n---\n%s", router, a, b)
		}
	}
}

func TestRunFleetSweep(t *testing.T) {
	out := runOut(t, "-mode", "fleet", "-clients", "3", "-rounds", "15", "-reps", "2",
		"-replicas", "1,2", "-router", "all", "-fail-every", "30", "-recover-after", "10")
	for _, want := range []string{"fleet sweep", "avail%", "reroutes", "round-robin", "least-loaded", "hash"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	// Header + blank + column header + 3 routers × 2 replica counts.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 9; got != want {
		t.Errorf("sweep printed %d lines, want %d:\n%s", got, want, out)
	}
}

func TestRunFleetTraceOut(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	runOut(t, "-mode", "fleet", "-clients", "3", "-rounds", "20", "-replicas", "2", "-router", "hash",
		"-fail-every", "30", "-recover-after", "10", "-trace-out", trace)
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatalf("fleet trace does not parse: %v", err)
	}
	var routes int
	for _, ev := range events {
		if ev.Kind == obs.KindRoute {
			routes++
		}
	}
	if routes == 0 {
		t.Error("fleet trace has no route events")
	}
	// A sweep cannot be traced.
	var sb strings.Builder
	if err := run([]string{"-mode", "fleet", "-clients", "2", "-rounds", "10", "-router", "all",
		"-trace-out", filepath.Join(dir, "sweep.jsonl")}, &sb); err == nil {
		t.Error("run accepted tracing a fleet sweep")
	}
}

func TestRunFleetBadFlags(t *testing.T) {
	cases := [][]string{
		{"-mode", "fleet", "-router", "teleport"},
		{"-mode", "fleet", "-router", ""},
		{"-mode", "fleet", "-replicas", "0"},
		{"-mode", "fleet", "-replicas", ""},
		{"-mode", "fleet", "-fail-every", "-1"},
		{"-mode", "fleet", "-fail-every", "NaN"},
		{"-mode", "fleet", "-fail-every", "Inf"},
		{"-mode", "fleet", "-recover-after", "-1"},
		{"-mode", "fleet", "-recover-after", "NaN"},
		{"-mode", "fleet", "-fail-every", "10"}, // failures need a repair time
		// Fleet sweeps router × replicas only.
		{"-mode", "fleet", "-clients", "2,3"},
		{"-mode", "fleet", "-discipline", "all"},
		{"-mode", "fleet", "-controller", "all"},
		{"-mode", "fleet", "-predictor", "all"},
		// The fleet flags are validated in every mode.
		{"-mode", "prefetch-only", "-router", "teleport"},
		{"-mode", "cache", "-replicas", "0"},
		{"-mode", "session", "-fail-every", "-2"},
		{"-mode", "multiclient", "-fail-every", "5"}, // no -recover-after
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted bad fleet input", args)
		}
	}
}

// TestExitStatusBadFleetFlags: the same validation at the process level.
func TestExitStatusBadFleetFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	bad := [][]string{
		{"-mode", "prefetch-only", "-router", "teleport"},
		{"-mode", "cache", "-replicas", "0"},
		{"-mode", "prefetch-only", "-fail-every", "-1"},
		{"-mode", "session", "-fail-every", "5"},
		{"-mode", "fleet", "-clients", "2", "-rounds", "5", "-router", "warp"},
	}
	for _, args := range bad {
		if code := exitStatus(t, args...); code == 0 {
			t.Errorf("prefetchsim %v exited 0, want non-zero", args)
		}
	}
	ok := []string{"-mode", "fleet", "-clients", "2", "-rounds", "5", "-replicas", "2", "-router", "round-robin"}
	if code := exitStatus(t, ok...); code != 0 {
		t.Errorf("prefetchsim %v exited %d, want 0", ok, code)
	}
}

// TestRunTraceDeterministic: same seed, same flags — byte-identical
// trace and metrics files.
func TestRunTraceDeterministic(t *testing.T) {
	mk := func(dir string) (string, string) {
		trace := filepath.Join(dir, "trace.jsonl")
		metrics := filepath.Join(dir, "metrics.json")
		runOut(t, "-mode", "multiclient", "-clients", "3", "-rounds", "25", "-seed", "7",
			"-discipline", "priority", "-controller", "aimd",
			"-trace-out", trace, "-metrics-out", metrics)
		return trace, metrics
	}
	t1, m1 := mk(t.TempDir())
	t2, m2 := mk(t.TempDir())
	for _, pair := range [][2]string{{t1, t2}, {m1, m2}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}
}
