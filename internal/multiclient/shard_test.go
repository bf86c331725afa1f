package multiclient

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// shardConfigs covers every scriptable planner/predictor/scheduler shape:
// the determinism contract is that scripting (and its shard count) never
// changes a byte of results or traces across all of them.
func shardConfigs() map[string]Config {
	base := DefaultConfig()
	base.Rounds = 40
	base.Clients = 6
	base.Seed = 42

	drift := base
	drift.DriftEvery = 7

	learned := base
	learned.Predict = predict.Config{Kind: predict.KindPPM, ColdStart: predict.FallbackUniform}

	mixture := base
	mixture.Predict = predict.Config{Kind: predict.KindMixture}
	mixture.DriftEvery = 5

	adaptiveCfg := base
	adaptiveCfg.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	adaptiveCfg.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true,
		AdmitUtil: 0.8, AdmitWindow: 20}

	served := base
	served.ServerCacheSlots = 12
	served.ClientCacheSlots = 0

	baseline := base
	baseline.DisablePrefetch = true

	return map[string]Config{
		"oracle":   base,
		"drift":    drift,
		"learned":  learned,
		"mixture":  mixture,
		"adaptive": adaptiveCfg,
		"srvcache": served,
		"baseline": baseline,
	}
}

// runTraced runs cfg with a JSON trace attached and returns the result
// plus the exact trace bytes.
func runTraced(t *testing.T, cfg Config) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Tracer = w
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	return res, buf.Bytes()
}

// TestScriptedMatchesInline is the core equivalence gate of the sharded
// core: the Phase-A scripted client must replay the inline client
// bit-for-bit — identical results AND byte-identical decision traces —
// for every scriptable configuration shape.
func TestScriptedMatchesInline(t *testing.T) {
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			if !Scriptable(cfg) {
				t.Fatalf("config unexpectedly not scriptable")
			}
			scripted, scriptedTrace := runTraced(t, cfg)
			scriptingDisabled = true
			inline, inlineTrace := runTraced(t, cfg)
			scriptingDisabled = false
			if !reflect.DeepEqual(scripted, inline) {
				t.Errorf("scripted result differs from inline:\nscripted: %+v\ninline:   %+v", scripted, inline)
			}
			if !bytes.Equal(scriptedTrace, inlineTrace) {
				t.Errorf("scripted trace differs from inline (%d vs %d bytes)",
					len(scriptedTrace), len(inlineTrace))
			}
		})
	}
}

// TestShardCountIndependence pins the Phase-A contract: the shard worker
// count — one per GOMAXPROCS, at most one per client — is a parallelism
// detail and nothing else. Results and traces must be byte-identical for
// GOMAXPROCS ∈ {1, 2, 4, 16}, which splits the six clients into 1, 2, 4
// and 6 shards.
func TestShardCountIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want, wantTrace := runTraced(t, cfg)
			for _, procs := range []int{2, 4, 16} {
				runtime.GOMAXPROCS(procs)
				got, gotTrace := runTraced(t, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS=%d: result differs from GOMAXPROCS=1", procs)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("GOMAXPROCS=%d: trace differs from GOMAXPROCS=1 (%d vs %d bytes)",
						procs, len(gotTrace), len(wantTrace))
				}
			}
		})
	}
}

// TestSharedPredictorStaysInline documents the one non-scriptable shape:
// the shared aggregate trains on the cross-client arrival order, which
// only the live event loop knows.
func TestSharedPredictorStaysInline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predict = predict.Config{Kind: predict.KindShared}
	if Scriptable(cfg) {
		t.Fatalf("shared-predictor config must not be scriptable")
	}
	cfg.Clients = 4
	cfg.Rounds = 20
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
