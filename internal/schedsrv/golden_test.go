package schedsrv

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"prefetch/internal/rng"
)

// genTiedArrivals is genArrivals on an integer arrival grid: many clients
// submit at the same instant, so transfers start together and preemption
// must break startedAt ties by arrival sequence.
func genTiedArrivals(seed uint64, clients, perClient int) []arrival {
	r := rng.New(seed)
	var out []arrival
	for c := 0; c < clients; c++ {
		at := 0.0
		for i := 0; i < perClient; i++ {
			at += float64(r.Uint64() % 16)
			out = append(out, arrival{
				at:      at,
				client:  c,
				page:    c*perClient + i,
				service: 0.5 + float64(r.Uint64()%40)/10,
				demand:  r.Uint64()%3 == 0,
			})
		}
	}
	return out
}

// TestGoldenFingerprints pins the SHA-256 of each replay config's
// completion trace, plus one wide preemptive run, to digests recorded
// from an earlier implementation. Unlike TestDeterministicReplay, which
// compares two runs of the same code, it fails when a refactor changes
// any completion time, wait, busy-time sum or preemption count.
//
// The wide run (48 clients near saturation on 16 slots, integer arrival
// times) starts many speculative transfers at the same instant, so its
// preemptions exercise the (startedAt, seq) victim tie-break, including
// restarted victims that keep their older seq: of its 662 preemptions,
// 129 choose among same-instant speculative starts, 31 of them with a
// restarted transfer in the tie.
func TestGoldenFingerprints(t *testing.T) {
	want := map[string]string{
		"fifo":                  "ba03bf26c9c0db2b02246b2add6e6b9c7a90dadb6fb492d48f3d68039efa3626",
		"priority":              "d7467029b7b5fae85eb5b287a1b6474ac87a0d66a60e1f1001e7b8fe8f9c38ea",
		"priority+preempt":      "a247eba5f4949645fb7e9870be2c9e1accf65f19a6717cbeac0fbf03ab8fc58a",
		"wfq":                   "aec39e98b78775ecc7e2b5885a67a9e0e6d9a06a5cadd9626c84fb5e1c4e05a4",
		"shaped":                "e14a2aab005c3e85df08174811863a3e10d6b8a46ea112e1ddada4f37dc6ff98",
		"fifo+admit":            "54087b78bec6b3a27b7270fd2720bcb4a30364a19b88f4b9399f54bcd6d62fb9",
		"fifo+admit-defer":      "7f3f56657843a31badec178e0978de302f800f37c545dca07d3506aa60162e49",
		"wide/priority+preempt": "90581a8bb213e4eb0da1021180db8ef8797c0089e702b62419d518e81b2c06a0",
	}
	check := func(name string, cfg Config, load []arrival) {
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256([]byte(fingerprint(t, cfg, load)))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("fingerprint digest %s, want %s", got, want[name])
			}
		})
	}
	load := replayLoad()
	for _, cfg := range replayConfigs {
		check(replayName(cfg), cfg, load)
	}
	check("wide/priority+preempt", Config{Concurrency: 16, Kind: KindPriority, Preempt: true},
		genTiedArrivals(91, 48, 40))
}
