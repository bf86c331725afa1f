package multiclient

import (
	"bytes"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/golden"
	"prefetch/internal/obs"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// goldenConfigs is one contended run per scheduling discipline and per λ
// controller, plus the shapes that take their own code paths: the shared
// predictor with a warmed server cache (the inline client), drift, the
// round-stamped prefetch-only client without a cache, client and server
// caches large enough to look pages up through an index rather than a
// scan, and the no-prefetch baseline.
func goldenConfigs() map[string]Config {
	base := DefaultConfig()
	base.Clients = 6
	base.Rounds = 60
	base.ServerCacheSlots = 20
	base.Seed = 5
	with := func(mut func(*Config)) Config {
		cfg := base
		mut(&cfg)
		return cfg
	}
	return map[string]Config{
		"fifo":             base,
		"priority":         with(func(c *Config) { c.Sched.Kind = schedsrv.KindPriority }),
		"priority+preempt": with(func(c *Config) { c.Sched = schedsrv.Config{Kind: schedsrv.KindPriority, Preempt: true} }),
		"wfq":              with(func(c *Config) { c.Sched.Kind = schedsrv.KindWFQ }),
		"shaped":           with(func(c *Config) { c.Sched.Kind = schedsrv.KindShaped }),
		"admit-drop":       with(func(c *Config) { c.Sched = schedsrv.Config{AdmitUtil: 0.6, AdmitWindow: 20} }),
		"admit-defer": with(func(c *Config) {
			c.Sched = schedsrv.Config{AdmitUtil: 0.6, AdmitWindow: 20, AdmitDefer: true}
		}),
		"static":         with(func(c *Config) { c.Adaptive = adaptive.Config{Kind: adaptive.KindStatic, Lambda0: 0.5} }),
		"aimd":           with(func(c *Config) { c.Adaptive.Kind = adaptive.KindAIMD }),
		"target-util":    with(func(c *Config) { c.Adaptive.Kind = adaptive.KindTargetUtil }),
		"delay-gradient": with(func(c *Config) { c.Adaptive.Kind = adaptive.KindDelayGradient }),
		"shared+warm": with(func(c *Config) {
			c.Predict.Kind = predict.KindShared
			c.WarmServerCache = true
			c.Adaptive.Kind = adaptive.KindAIMD
		}),
		"ppm+drift": with(func(c *Config) {
			c.Predict = predict.Config{Kind: predict.KindPPM, ColdStart: predict.FallbackUniform}
			c.DriftEvery = 9
		}),
		"no-client-cache": with(func(c *Config) { c.ClientCacheSlots = 0 }),
		"client-cache-64": with(func(c *Config) { c.ClientCacheSlots = 64 }),
		"server-cache-64": with(func(c *Config) { c.ServerCacheSlots = 64 }),
		"baseline":        with(func(c *Config) { c.DisablePrefetch = true }),
	}
}

// TestGoldenDigests pins the SHA-256 of each golden config's full Result
// (every field, floats as bits) and of its JSONL decision trace to
// digests recorded before the client/server state machine was shared
// with the fleet (the two 64-slot cache configs: while the caches were
// still map-backed). The untraced run must report the same Result as the
// traced one.
func TestGoldenDigests(t *testing.T) {
	want := map[string][2]string{
		"admit-defer": {
			"03bc5f7c7a92361741c6d2718db1a0cb55f163a8b3689c16c3d92cfeedf29510",
			"8edde8c21662334c3dafe16ce23beb9e646d9976a9e7a35f2cbded13e3a4b453",
		},
		"admit-drop": {
			"c780e57b6b7e09928b3a284c17944a85aa97ca5614530151810549abc11e3e9b",
			"8710cedf43021002d60711767d1f7cb0de26be04417b662a726a23ada65d6f08",
		},
		"aimd": {
			"6d74f6d0e5de17340b4a349910956d91143e897c7d4e59f9a1d03456f5d0ad82",
			"4901b118edd44278f8e0804432fa7b9418cdef18622a20ba88f4a17dbb6918e9",
		},
		"baseline": {
			"fcd00520c4d98e2d259a5a3b22562352f3fc91af722ba7ab14b567fdb3886cf2",
			"1559ebf3d70ec10c87ce8767e59b970d428a4cdcc05633346e2889d86ca288e6",
		},
		"client-cache-64": {
			"3bc00fd7d23e03aa684f18ec8ca53b36271f18ec597105fcaeb751c9a44b27a9",
			"23b84d41ef02407bbb9ba41d49c0313db9680841a638b3c3744f13611fefee6a",
		},
		"server-cache-64": {
			"4c8570450f5b3c0c48f058f493f8d99a62ea9be7db0e903e1cd838ad0a9d56ae",
			"a9111bc0a9949e90117f4e65823e5884d73ba5d4d6958ebd0b08fd1a6020842d",
		},
		"delay-gradient": {
			"29650e6894d36073197c089a2aae1d409f6a14ee728c85383f11e3bc676c4428",
			"a467da36a95cf2f7ec743be4565f9dc277621d3ebadb934aae25cfa2aa5a7de2",
		},
		"fifo": {
			"0762dc39acdda2c1fe46bfedd0d091b74dc6eb65a07f9d25a02e0fcc72a127d9",
			"adfecc70b71e3082e784d77a3bb59e6a5df928c6a15dac02bdc4a975aba073c8",
		},
		"no-client-cache": {
			"3806f7f190fcbdd37bbf1436bde6f6e6a58294f8f5525089e8616b49e9da82a8",
			"28b057dd076ffc43954992224c3d173a6484632f7e1d12e131be5a774eff7a1f",
		},
		"ppm+drift": {
			"a4a58529078d7b6aa6c442d71ec5c656512a7aded5eb01c04da15bb6ff46eccf",
			"6be02d8427ca9e769f1c9ba6a4744e5a180ea540fb11ba230ae03289894e6310",
		},
		"priority": {
			"a37aa75ac3f5521bf085e5e8167fd6d0a1a1cc6025244ce3f99ec9d8c0dc533b",
			"9f19aebaa98f503b6c1aea746fc55d376b3ea675e0bd22dafb267c79f7e74495",
		},
		"priority+preempt": {
			"3653ebfa9d119b485448f06ddc970e43fd351e1c12f90dabaf83dfe698325217",
			"2a990ec8cc31f368d41cddfb8208440ae163e6de8aa88d25f222c946b96c3c4f",
		},
		"shaped": {
			"81a3772fb8cebad5ba7e6dcf6cbe0070d7a300bd62ad1f83b6ad8fcaa3700e82",
			"a09b0be1e007a66a37a0ea02676e082f65ad0c36faf11831fcdea806f31da771",
		},
		"shared+warm": {
			"bbd014f7410a25b15f23a6d872c7fc5dc65509584aaef5b51e6352e82a52e922",
			"56231a5cd77b4dd0e59a30bd32b1449af510c8d0a72a43cfb331480cf7db0f81",
		},
		"static": {
			"5c4c3e9028c033a5e83774dd0518ef2d6b16f94859ca64f3f085cd40764bed14",
			"904916a778ab08aacf70d27dc770d86c6130710de3f8c0273414ad7485ad0c90",
		},
		"target-util": {
			"f65f4950f26b713d3fed5463e5600e4b8c2d09859fb73058472bdb0133f63f7e",
			"9b646abae58e58cf365a27ed7037f864f2b4d749a756a69bf3122e125abeddde",
		},
		"wfq": {
			"656969d0a9eb120fff6b78182506121437a844fcc5ae28f0f5bfe0d139369449",
			"5255c48f532820a2444346d54122da85475cc5cdb1f4d6c7cf4eecaab55e83bc",
		},
	}
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := obs.NewWriter(&buf)
			cfg.Tracer = w
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
			if got != want[name] {
				t.Errorf("digests\n got {%q, %q}\nwant {%q, %q}", got[0], got[1], want[name][0], want[name][1])
			}
		})
	}
}
