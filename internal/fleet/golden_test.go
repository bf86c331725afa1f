package fleet

import (
	"bytes"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/golden"
	"prefetch/internal/multiclient"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
)

// goldenShapes are the prediction shapes of the golden matrix: the
// stationary oracle under the static controller and PPM over a drifting
// surfer (both scripted by Phase A), and the shared predictor with a
// warmed server cache (the inline path).
var goldenShapes = map[string]func(*multiclient.Config){
	"oracle": func(c *multiclient.Config) {
		c.Predict = predict.Config{}
		c.WarmServerCache = false
		c.Adaptive.Kind = adaptive.KindStatic
	},
	"ppm+drift": func(c *multiclient.Config) {
		c.Predict = predict.Config{Kind: predict.KindPPM, ColdStart: predict.FallbackUniform}
		c.WarmServerCache = false
		c.DriftEvery = 7
	},
	"shared+warm": func(*multiclient.Config) {},
}

// TestGoldenDigests pins the SHA-256 of the full Result (every field,
// floats as bits) and of the JSONL decision trace for every router ×
// {no failures, churn} × prediction shape, to digests recorded before
// the fleet ran on the multiclient state machine. The untraced run must
// report the same Result as the traced one.
func TestGoldenDigests(t *testing.T) {
	want := map[string][2]string{
		"hash/churn/oracle": {
			"cff246c2f7c6bf0438e3230603654ebbea0a245e7825d5dad69a6a32c749382a",
			"afea2c85bc1afea104fc4e39e081a1c9be13f8ee705c9492b0ccd890a581f93e",
		},
		"hash/churn/ppm+drift": {
			"609616df4d94b22f1e513bc8286965260a1fcc2a288c049d3d366ca9ea7c8f55",
			"513138d391bdfa1a3fa358feafe46fac30a7cad1b9d24712179aec3208ae2dd3",
		},
		"hash/churn/shared+warm": {
			"030bae4c18f5aab9b61e5821a96bcb8c1a204b725d79e3f5a14a57399c0848b7",
			"747da04086ed8e7af25da5726db9561874ff1c028e2d1bbcb0978612d0ade157",
		},
		"hash/steady/oracle": {
			"2320bf873195847980e2ce136ebc3515e6b1ef06d9be0d0e15e0f0c768a9ee25",
			"324eaa625a6e97246b13d351ae9d8976fed78b2e3ed3ce9aa9fd479fab1e13cc",
		},
		"hash/steady/ppm+drift": {
			"11ecd1759d93058fa7e7f31a61c113017cebfb4595156a46c841d69fcfe053c0",
			"e58592e531d61fbb6e6520cc84c62d67c0387cc9050abdceffdec8e17786e5df",
		},
		"hash/steady/shared+warm": {
			"89d62f82fd7cde9c494c3b743bd7be3591d2c2100f0586d199510df5f2224b22",
			"0c26842c1f7c17aab5f43702f78b727dc7ba005743a3c7747cb0ab64fd6f0b0d",
		},
		"least-loaded/churn/oracle": {
			"38e434bd9fd48e2a3c7c956cc630be7718fa1bf2b2f90a08716f00806aa1a3f9",
			"11c7936061b1679f498022ee332b3a4cfd9d54c0c9259e40e3ab74d3badb2787",
		},
		"least-loaded/churn/ppm+drift": {
			"acff5a80cce695514686c67a60167cbf38c2aa4ea197b5bc2a58e41960707030",
			"32ae51a6b43d2915f23f9168a681f8997fbfc5ea791ea09fd517db1458b3e94c",
		},
		"least-loaded/churn/shared+warm": {
			"3118c08a5dd186e5105d4e2a03798b2f22fd115cf895865d4f5f6edea9d47c88",
			"aeeda9858b1d72eaef3ddc912b5afad265631a5bb4316a681c0178e6546cbe3a",
		},
		"least-loaded/steady/oracle": {
			"0f41fb2c608e5d5eca537661f665f20976e2e6728887f73a0cc8fc97900a30b4",
			"d112c6d7bc15cbc83cc6c706679fce9fc66790d2eaae372fbe5d735932fcb893",
		},
		"least-loaded/steady/ppm+drift": {
			"ac32b3205b1b726e7c75dbf0fcf4cfcab5ac4a48ba52246c656e1887280e319a",
			"f34aaa9753a4c24a0f872e3e847a1c08624c2157724ef4cc331cff97bf083b8a",
		},
		"least-loaded/steady/shared+warm": {
			"3691b57fc8b33485ff06dfa9796b4b73b8b375bb415a7f9dfbfe3935508de10a",
			"196ce37aa8729ec0682c2d6bbddc665dae41515dfd5898cc201c7f40d1998ec6",
		},
		"round-robin/churn/oracle": {
			"8970e5e68ddeeb3f12860b13958c33eeb5b68521ff88fa24be91857916371445",
			"48e4f39475f1ed82405862b1547a0c093b02b3f8bc9c866973d3ef8b11e20836",
		},
		"round-robin/churn/ppm+drift": {
			"b640a3bcb6a07ff6e324b097f97600a6ff8a54f93d74183c68b00400a17186f2",
			"ab36a7580d8f6769860b486c43ea7facda188bf85f96015ce8afefa945794cbc",
		},
		"round-robin/churn/shared+warm": {
			"47bbc028143dd2e5e318da36d1589b085e1c2f5c45e8f73dd0b903913ce93d69",
			"319e7fc84c9f0c07a8f877e599e5ad5db8e47b4ef06795e39b8ddb19e4b31e43",
		},
		"round-robin/steady/oracle": {
			"5204e846bf470abf0f187d420599b46340d9a11f9a41a8f9e93223de32225fbe",
			"8b99c91314928ee0c188c1c6a86e60b8d56db8452a3ec51f0ad57b55868691f1",
		},
		"round-robin/steady/ppm+drift": {
			"281b487f8e4220a8bc62ebea14684b27dc837177a517a20a7c138cf9f3b19420",
			"82139ad41c9960c2f4531d526294ae323c0ae7688afba60c226689123a40c593",
		},
		"round-robin/steady/shared+warm": {
			"50fd9b44522e5dcbcba023b08329901dfa4792129622f9ec953aa0aaac9033ff",
			"dd325c2c84ce995becf931514c1aae7f5534ae600d47026e2980151bcb799047",
		},
	}
	for _, router := range Kinds() {
		for _, failures := range []bool{false, true} {
			for shape, mut := range goldenShapes {
				cfg := churnConfig()
				cfg.Router = router
				if !failures {
					cfg.FailEvery, cfg.RecoverAfter = 0, 0
				}
				mut(&cfg.Base)
				name := string(router) + "/" + map[bool]string{false: "steady", true: "churn"}[failures] + "/" + shape
				t.Run(name, func(t *testing.T) {
					plain := checkGolden(t, cfg, want[name])
					if failures && (plain.Failures == 0 || plain.ReRoutes == 0) {
						t.Errorf("churn run saw %d failures and %d reroutes; want both > 0", plain.Failures, plain.ReRoutes)
					}
				})
			}
		}
	}
}

// TestGoldenFleetShared pins the digests of a small run shaped like the
// perfbench fleet-shared workload: a shared predictor (the inline
// planning path) with a warmed server cache, the target-utilisation
// controller, three hash-routed replicas and failure injection. The
// digests were recorded before the prediction path went dense.
func TestGoldenFleetShared(t *testing.T) {
	want := [2]string{
		"8a380152a7b660384c7abec9f7251de599191e843e67602c384bf76736b9dc32",
		"d71a6db9c63fcc8a1b6bb742b20b954196d63f7c3c0191b0066ca3cb203b9aa3",
	}
	base := multiclient.DefaultConfig()
	base.Clients, base.Rounds, base.ServerConcurrency = 24, 60, 4
	base.ServerCacheSlots = 64
	base.WarmServerCache = true
	base.Predict = predict.Config{Kind: predict.KindShared}
	base.Adaptive = adaptive.Config{Kind: adaptive.KindTargetUtil}
	base.Seed = 7
	cfg := Config{Base: base, Replicas: 3, Router: KindHash, FailEvery: 40, RecoverAfter: 15}
	plain := checkGolden(t, cfg, want)
	if plain.Failures == 0 || plain.ReRoutes == 0 {
		t.Errorf("run saw %d failures and %d reroutes; want both > 0", plain.Failures, plain.ReRoutes)
	}
}

// TestGoldenFleetLargeCache pins the digests of a hash-routed fleet with
// failure injection whose replicas keep 64-slot server caches without
// warming, so every cache insert comes from client traffic. Failures are
// rare enough that the caches fill and evict (about 200 evictions over
// the run). The digests were recorded while the caches were still
// map-backed.
func TestGoldenFleetLargeCache(t *testing.T) {
	want := [2]string{
		"082d4ccf3b98df6ed686e9d0859bc86b43e1c810d8413a08d27b22f0de1829b0",
		"c4ad66dae5d2242f589424953e74e9234c464adea881400dc9cc7b017649c7d8",
	}
	base := multiclient.DefaultConfig()
	base.Clients, base.Rounds, base.ServerConcurrency = 24, 60, 4
	base.ServerCacheSlots = 64
	base.Predict = predict.Config{Kind: predict.KindShared}
	base.Adaptive = adaptive.Config{Kind: adaptive.KindAIMD}
	base.Seed = 11
	cfg := Config{Base: base, Replicas: 3, Router: KindHash, FailEvery: 200, RecoverAfter: 15}
	plain := checkGolden(t, cfg, want)
	if plain.Failures == 0 || plain.ServerCacheHits == 0 {
		t.Errorf("run saw %d failures and %d server cache hits; want both > 0", plain.Failures, plain.ServerCacheHits)
	}
}

// checkGolden runs cfg untraced and traced, checks that both report the
// same Result and that the Result and trace digests are want, and
// returns the untraced Result.
func checkGolden(t *testing.T, cfg Config, want [2]string) Result {
	t.Helper()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	cfg.Base.Tracer = w
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := [2]string{golden.Digest(plain), golden.Bytes(buf.Bytes())}
	if d := golden.Digest(traced); d != got[0] {
		t.Errorf("traced result digest %s differs from untraced %s", d, got[0])
	}
	if got != want {
		t.Errorf("digests\n got {%q, %q}\nwant {%q, %q}", got[0], got[1], want[0], want[1])
	}
	return plain
}
