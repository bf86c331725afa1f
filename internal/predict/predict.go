// Package predict is the pluggable prediction subsystem: the single
// interface through which every simulated client obtains its belief about
// the next access, and the place where the paper's "presupposed knowledge
// about future accesses" (§1) becomes a swappable, measurable component.
//
// The paper prices speculation against an access distribution it assumes
// is simply known. Real prefetchers must learn it — Padmanabhan & Mogul's
// server-computed dependency graphs, Vitter & Krishnan's PPM, and their
// modern descendants all estimate the predicted-access stream online. This
// package makes that axis first-class: a Source observes a client's access
// stream and answers Next(state) with a candidate distribution, and the
// multiclient simulation can run the identical contended workload under
//
//   - KindOracle — the surfer's true next-page distribution, bit-for-bit
//     the behaviour before this subsystem existed (the paper's assumption);
//   - KindDepGraph — an order-1 dependency graph trained online on the
//     client's own access stream;
//   - KindPPM — order-k prediction by partial matching, same stream;
//   - KindShared — one server-side aggregate model trained on the pooled
//     access stream of every client (per-client transition chains, so
//     interleaving never fabricates cross-client edges). The aggregate
//     doubles as the server's cache-warming model: its global page
//     frequencies say what the whole population will want next;
//   - KindDecay — order-1 transitions with exponentially decayed counts,
//     the predictor built for non-stationary workloads: after the hot
//     set drifts, stale evidence ages out and the estimate re-converges;
//   - KindMixture — a popularity×transition blend that hedges sparse
//     states with the global hot set;
//   - KindPPMEscape — PPM with escape-probability blending across
//     context orders down to global frequencies, replacing the hard
//     cold-start fallback with graceful back-off.
//
// Learned sources start cold. ColdStart selects the fallback while the
// model has no evidence for the current state: FallbackNone (predict
// nothing — the client simply does not speculate that round) or
// FallbackUniform (a uniform distribution over every page the source has
// observed so far).
//
// Determinism: sources are pure functions of their observation stream and
// consume no randomness, so identical seeds replay bit-for-bit and the
// oracle source reproduces the pre-subsystem timelines exactly.
package predict

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"prefetch/internal/access"
)

// ErrBadConfig reports an invalid prediction configuration.
var ErrBadConfig = errors.New("predict: bad config")

// Kind names a built-in prediction source.
type Kind string

// The built-in prediction sources.
const (
	KindOracle   Kind = "oracle"
	KindDepGraph Kind = "depgraph"
	KindPPM      Kind = "ppm"
	KindShared   Kind = "shared"
	// KindDecay is an order-1 transition model with exponentially decayed
	// counts (Config.HalfLife observations to half weight) — the
	// predictor that re-converges after a workload shift because stale
	// evidence ages out instead of anchoring the estimate forever.
	KindDecay Kind = "decay"
	// KindMixture blends order-1 transitions with global page popularity
	// at Config.MixWeight — popularity hedges sparse states and absorbs
	// the full mass when a state has no transition evidence at all.
	KindMixture Kind = "mixture"
	// KindPPMEscape is PPM with PPM-C-style escape blending across
	// context orders down to global frequencies, replacing the hard
	// cold-start fallback with graceful back-off.
	KindPPMEscape Kind = "ppm-escape"
)

// Kinds lists the built-in prediction sources in canonical order.
func Kinds() []Kind {
	return []Kind{KindOracle, KindDepGraph, KindPPM, KindShared, KindDecay, KindMixture, KindPPMEscape}
}

// Fallback selects a learned source's cold-start behaviour for states it
// has no evidence about.
type Fallback string

// The cold-start fallbacks.
const (
	// FallbackNone predicts nothing on a cold state: the client skips
	// speculation that round.
	FallbackNone Fallback = "none"
	// FallbackUniform predicts a uniform distribution over every page the
	// source has observed so far.
	FallbackUniform Fallback = "uniform"
)

// Source is the prediction interface every planner consumes: an online
// access model fed the client's demand-access stream through Observe and
// queried with Next for the distribution of the access after state.
// Probabilities sum to at most 1; the map may be empty when the source has
// nothing to say (a cold learned model with FallbackNone). Sources consume
// no randomness and are pure functions of their observation stream.
type Source interface {
	// Name identifies the source (e.g. "oracle", "depgraph", "ppm-2").
	Name() string
	// Observe feeds the next item of the access sequence.
	Observe(page int)
	// Next returns the predicted probability of each candidate next page
	// given the current state.
	Next(state int) map[int]float64
}

// Config parameterises the prediction source of one simulation. The zero
// value is the oracle — the paper's presupposed-knowledge behaviour.
type Config struct {
	// Kind selects the source; "" means KindOracle.
	Kind Kind
	// Order is the PPM context order (KindPPM and KindPPMEscape;
	// 0 = default 2).
	Order int
	// ColdStart selects the learned sources' cold-start fallback;
	// "" means FallbackNone. Ignored by the oracle.
	ColdStart Fallback
	// HalfLife is KindDecay's evidence half-life in observations
	// (0 = default 500).
	HalfLife float64
	// MixWeight is KindMixture's popularity share, in (0, 1)
	// (0 = default 0.25).
	MixWeight float64
}

// withDefaults fills zero-valued fields.
func (cfg Config) withDefaults() Config {
	if cfg.Kind == "" {
		cfg.Kind = KindOracle
	}
	if cfg.Order == 0 {
		cfg.Order = 2
	}
	if cfg.ColdStart == "" {
		cfg.ColdStart = FallbackNone
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = 500
	}
	if cfg.MixWeight == 0 {
		cfg.MixWeight = 0.25
	}
	return cfg
}

// Validate checks the configuration (after defaulting). Numeric checks
// are in positive form so NaN inputs are rejected, and every diagnostic
// reports the defaulted value actually compared against.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	known := false
	for _, k := range Kinds() {
		if c.Kind == k {
			known = true
			break
		}
	}
	switch {
	case !known:
		return fmt.Errorf("%w: unknown predictor %q", ErrBadConfig, c.Kind)
	case c.Order < 1:
		return fmt.Errorf("%w: ppm order %d (need >= 1)", ErrBadConfig, c.Order)
	case c.ColdStart != FallbackNone && c.ColdStart != FallbackUniform:
		return fmt.Errorf("%w: unknown cold-start fallback %q", ErrBadConfig, c.ColdStart)
	case !(c.HalfLife > 0) || math.IsInf(c.HalfLife, 0):
		return fmt.Errorf("%w: decay half-life %v (need finite > 0)", ErrBadConfig, c.HalfLife)
	case !(c.MixWeight > 0 && c.MixWeight < 1):
		return fmt.Errorf("%w: mixture weight %v outside (0, 1)", ErrBadConfig, c.MixWeight)
	}
	return nil
}

// New builds the configured source for one client. oracle is the
// true-distribution hook (required by KindOracle); shared is the run-wide
// aggregate model (required by KindShared), with client labelling the
// caller's stream within it.
func New(cfg Config, client int, oracle func(state int) map[int]float64, shared *Aggregate) (Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case KindOracle:
		if oracle == nil {
			return nil, fmt.Errorf("%w: oracle source needs a true-distribution hook", ErrBadConfig)
		}
		return NewOracle(oracle), nil
	case KindDepGraph:
		return withFallback(access.NewDependencyGraph(), cfg.ColdStart), nil
	case KindPPM:
		p, err := access.NewPPM(cfg.Order)
		if err != nil {
			return nil, err
		}
		return withFallback(p, cfg.ColdStart), nil
	case KindShared:
		if shared == nil {
			return nil, fmt.Errorf("%w: shared source needs the run's aggregate model", ErrBadConfig)
		}
		return withFallback(shared.ForClient(client), cfg.ColdStart), nil
	case KindDecay:
		return withFallback(newDecay(cfg.HalfLife), cfg.ColdStart), nil
	case KindMixture:
		return withFallback(newMixture(cfg.MixWeight), cfg.ColdStart), nil
	case KindPPMEscape:
		return withFallback(newPPMEscape(cfg.Order), cfg.ColdStart), nil
	}
	return nil, fmt.Errorf("%w: unknown predictor %q", ErrBadConfig, cfg.Kind)
}

// Oracle answers Next straight from a true-distribution hook and learns
// nothing: the paper's presupposed access knowledge as a Source.
type Oracle struct {
	fn func(state int) map[int]float64
}

// NewOracle wraps a true-distribution hook as a Source.
func NewOracle(fn func(state int) map[int]float64) *Oracle {
	return &Oracle{fn: fn}
}

// Name implements Source.
func (o *Oracle) Name() string { return string(KindOracle) }

// Observe implements Source; the oracle has nothing to learn.
func (o *Oracle) Observe(int) {}

// Next implements Source.
func (o *Oracle) Next(state int) map[int]float64 { return o.fn(state) }

// fallback wraps a learned source with the configured cold-start
// behaviour. It tracks the set of pages observed so far so FallbackUniform
// can spread mass over the known universe without consulting anything the
// client could not have seen.
type fallback struct {
	inner Source
	mode  Fallback
	seen  map[int]bool
}

// withFallback applies the cold-start policy; FallbackNone needs no
// wrapper at all.
func withFallback(inner Source, mode Fallback) Source {
	if mode == FallbackNone {
		return inner
	}
	return &fallback{inner: inner, mode: mode, seen: map[int]bool{}}
}

// Name implements Source.
func (f *fallback) Name() string { return f.inner.Name() }

// Observe implements Source.
func (f *fallback) Observe(page int) {
	f.seen[page] = true
	f.inner.Observe(page)
}

// nextInto is Next written into a zeroed dense vector.
func (f *fallback) nextInto(state int, probs []float64) bool {
	if nextInto(f.inner, state, probs) {
		return true
	}
	per := 1 / float64(len(f.seen))
	for p := range f.seen {
		probs[p] = per
	}
	return len(f.seen) > 0
}

// Next implements Source.
func (f *fallback) Next(state int) map[int]float64 {
	if d := f.inner.Next(state); len(d) > 0 {
		return d
	}
	out := make(map[int]float64, len(f.seen))
	per := 1 / float64(len(f.seen))
	for p := range f.seen {
		out[p] = per
	}
	return out
}

// Aggregate is the server-side shared model: order-1 transition counts
// pooled over every client's access stream, with the previous page tracked
// per client so the interleaved arrival order never fabricates
// cross-client transitions, plus global page frequencies for server cache
// warming. One Aggregate serves a whole simulation; clients obtain their
// Source view with ForClient. It is not safe for concurrent use — the
// simulators are single-goroutine per replica.
//
// Pages and clients are dense non-negative ids, so every table is a
// slice indexed by id, grown on demand to the largest id observed.
type Aggregate struct {
	edges [][]int64 // edges[prev][page]: pooled prev → page transitions
	outN  []int64   // outN[prev]: Σ edges[prev]
	freq  []int64   // freq[page]: pooled accesses of page
	last  []int     // last[client]: the client's previous page, -1 before its first
	total int64
	top   pageRank // TopPages' ranking scratch
}

// NewAggregate returns an empty aggregate model.
func NewAggregate() *Aggregate { return &Aggregate{} }

// ObserveClient feeds one page of a client's access stream into the
// pooled model.
func (a *Aggregate) ObserveClient(client, page int) {
	for len(a.last) <= client {
		a.last = append(a.last, -1)
	}
	for len(a.freq) <= page {
		a.edges = append(a.edges, nil)
		a.outN = append(a.outN, 0)
		a.freq = append(a.freq, 0)
	}
	if prev := a.last[client]; prev >= 0 {
		row := a.edges[prev]
		for len(row) <= page {
			row = append(row, 0)
		}
		row[page]++
		a.edges[prev] = row
		a.outN[prev]++
	}
	a.last[client] = page
	a.freq[page]++
	a.total++
}

// Next returns the pooled transition distribution out of state.
func (a *Aggregate) Next(state int) map[int]float64 {
	out := map[int]float64{}
	if state >= len(a.outN) || a.outN[state] == 0 {
		return out
	}
	total := a.outN[state]
	for page, c := range a.edges[state] {
		if c > 0 {
			out[page] = float64(c) / float64(total)
		}
	}
	return out
}

// nextInto is Next written into a zeroed dense vector, reporting whether
// state has any pooled successors.
func (a *Aggregate) nextInto(state int, probs []float64) bool {
	if state >= len(a.outN) || a.outN[state] == 0 {
		return false
	}
	total := a.outN[state]
	for page, c := range a.edges[state] {
		if c > 0 {
			probs[page] = float64(c) / float64(total)
		}
	}
	return true
}

// Freq returns the pooled access count of a page.
func (a *Aggregate) Freq(page int) int64 {
	if page >= len(a.freq) {
		return 0
	}
	return a.freq[page]
}

// Observations returns the total number of pooled observations.
func (a *Aggregate) Observations() int64 { return a.total }

// TopPages returns the n most frequently accessed pages over the pooled
// stream, most popular first, ties broken by lowest page ID — the warm
// set a server-side prefetcher should hold.
func (a *Aggregate) TopPages(n int) []int {
	if n <= 0 {
		return nil
	}
	// The ranking scratch lives on the Aggregate: warm passes recur all
	// run long, and a local would escape to the heap through sort.Sort.
	r := &a.top
	r.freq = a.freq
	r.pages = r.pages[:0]
	for p, f := range a.freq {
		if f > 0 {
			r.pages = append(r.pages, p)
		}
	}
	if len(r.pages) == 0 {
		return nil
	}
	sort.Sort(r)
	return append([]int(nil), r.pages[:min(n, len(r.pages))]...)
}

// pageRank orders pages by pooled frequency (desc) then page id: a total
// order, so the ranking is independent of the sort algorithm.
type pageRank struct {
	pages []int
	freq  []int64
}

func (r *pageRank) Len() int      { return len(r.pages) }
func (r *pageRank) Swap(i, j int) { r.pages[i], r.pages[j] = r.pages[j], r.pages[i] }
func (r *pageRank) Less(i, j int) bool {
	fi, fj := r.freq[r.pages[i]], r.freq[r.pages[j]]
	if fi != fj {
		return fi > fj
	}
	return r.pages[i] < r.pages[j]
}

// clientView adapts one client's slot in the Aggregate to the Source
// interface.
type clientView struct {
	agg    *Aggregate
	client int
}

// ForClient returns client's Source view of the pooled model: Observe
// extends that client's chain, Next reads the pooled counts.
func (a *Aggregate) ForClient(client int) Source {
	return &clientView{agg: a, client: client}
}

// Name implements Source.
func (v *clientView) Name() string { return string(KindShared) }

// Observe implements Source.
func (v *clientView) Observe(page int) { v.agg.ObserveClient(v.client, page) }

// Next implements Source.
func (v *clientView) Next(state int) map[int]float64 { return v.agg.Next(state) }

// NextInto writes src's predicted distribution of the access after state
// into probs, indexed by page: probs[p] is bit for bit Next(state)[p],
// and 0 for every page Next leaves out. probs is overwritten and must be
// longer than any page the source can name (the site's page count). The
// shared aggregate's client views fill probs straight from the pooled
// counts without building a map; every other source's Next is
// scattered.
func NextInto(src Source, state int, probs []float64) {
	clear(probs)
	nextInto(src, state, probs)
}

// nextInto fills the zeroed probs from src and reports whether src
// predicted anything (whether Next's map would be non-empty).
func nextInto(src Source, state int, probs []float64) bool {
	switch s := src.(type) {
	case *clientView:
		return s.agg.nextInto(state, probs)
	case *fallback:
		return s.nextInto(state, probs)
	}
	d := src.Next(state)
	for page, p := range d {
		probs[page] = p
	}
	return len(d) > 0
}

// L1 returns the L1 distance Σ |p(i) − q(i)| between two distributions
// over the union of their supports — the prediction-error metric the
// multiclient simulation records each planned round (0 = identical, 2 =
// disjoint). The terms are summed in sorted key order: float addition is
// not associative, so summing in map iteration order would make the last
// ulp of the result nondeterministic across runs and break the
// simulators' bit-for-bit replay guarantee.
func L1(p, q map[int]float64) float64 {
	keys := make([]int, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		d := p[k] - q[k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// L1Dense is L1 over two page-indexed vectors of equal length. Summing
// in ascending page order is L1's sorted-key order, and each page in
// neither support adds |0 − 0| = +0, which leaves the sum unchanged, so
// for vectors holding the maps' values the result is bit for bit L1's.
func L1Dense(p, q []float64) float64 {
	q = q[:len(p)]
	var sum float64
	for i := range p {
		d := p[i] - q[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}
