package predict

import (
	"fmt"
	"math"
	"sort"

	"prefetch/internal/access"
)

// This file holds the drift-tracking learned sources from the ROADMAP:
// exponentially-decayed transition counts (KindDecay), a popularity ×
// transition mixture (KindMixture), and a blended/escape PPM that backs
// off across context orders instead of falling off a hard cold-start
// cliff (KindPPMEscape). All three are deterministic pure functions of
// their observation streams: per-key arithmetic happens in a fixed
// order, and any sum over a float-valued map is taken in sorted key
// order so the last ulp can never depend on map iteration (the same
// bit-for-bit-replay discipline as L1).

// pruneEps is the decayed-count floor below which an edge is dropped:
// far beyond float noise after a handful of half-lives, so pruning
// bounds memory without measurably moving any prediction.
const pruneEps = 1e-12

// decaySource is an order-1 transition model whose evidence ages: every
// observation scales all earlier counts by 2^(-1/halfLife) before the
// new edge gets weight 1, so an observation halfLife observations old
// carries half the weight of a fresh one. Under a stationary workload it
// behaves like a noisier dependency graph (it keeps discarding
// evidence); under a drifting one it is the predictor that re-converges,
// because stale pre-shift counts decay away instead of anchoring the
// estimate forever.
//
// Decay is applied lazily per state: each state's counts are aged to the
// global observation clock only when the state is touched by Observe.
// Every count in a state therefore shares the state's age, so the decay
// factor between the state's last touch and "now" cancels in Next's
// normalisation and prediction needs no aging at all.
type decaySource struct {
	alpha  float64 // per-observation decay factor 2^(-1/halfLife)
	clock  int64   // observations so far
	states map[int]*decayState
	last   int
	any    bool
}

type decayState struct {
	next map[int]float64
	aged int64 // clock value the counts were last aged to
}

// newDecay returns an empty decayed-count source with the given
// half-life in observations (> 0; validated by Config.Validate).
func newDecay(halfLife float64) *decaySource {
	return &decaySource{
		alpha:  math.Exp2(-1 / halfLife),
		states: map[int]*decayState{},
	}
}

// Name implements Source.
func (d *decaySource) Name() string { return string(KindDecay) }

// Observe implements Source.
func (d *decaySource) Observe(page int) {
	d.clock++
	if d.any {
		st := d.states[d.last]
		if st == nil {
			st = &decayState{next: map[int]float64{}}
			d.states[d.last] = st
		}
		st.age(d.alpha, d.clock)
		st.next[page]++
	}
	d.last = page
	d.any = true
}

// age scales the state's counts down to the current clock. Each entry is
// scaled independently (order-free), and entries that have decayed below
// pruneEps are dropped.
func (st *decayState) age(alpha float64, clock int64) {
	dt := clock - st.aged
	st.aged = clock
	if dt <= 0 || len(st.next) == 0 {
		return
	}
	f := powN(alpha, dt)
	for page, c := range st.next {
		c *= f
		if c < pruneEps {
			delete(st.next, page)
		} else {
			st.next[page] = c
		}
	}
}

// powN computes alpha^n by binary exponentiation — deterministic and
// exactly reproducible for a given (alpha, n), unlike a loop whose
// rounding depends on n's magnitude only.
func powN(alpha float64, n int64) float64 {
	result := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			result *= alpha
		}
		alpha *= alpha
	}
	return result
}

// Next implements Source. The shared age of a state's counts cancels in
// the normalisation, so no aging is needed here; the total is summed in
// sorted key order for bit-for-bit replay.
func (d *decaySource) Next(state int) map[int]float64 {
	out := map[int]float64{}
	st := d.states[state]
	if st == nil || len(st.next) == 0 {
		return out
	}
	keys := make([]int, 0, len(st.next))
	for page := range st.next {
		keys = append(keys, page)
	}
	sort.Ints(keys)
	var total float64
	for _, page := range keys {
		total += st.next[page]
	}
	for _, page := range keys {
		out[page] = st.next[page] / total
	}
	return out
}

// mixtureSource blends an order-1 transition model with global page
// popularity: Next = (1−w)·transition + w·popularity, the PPE-style
// popularity×transition mixture. The popularity component hedges the
// transition estimate — sparse states borrow mass from the global hot
// set — and when a state has no transition evidence at all the whole
// mass escapes to popularity, so the mixture never faces the hard
// cold-start cliff of a bare dependency graph.
type mixtureSource struct {
	weight float64 // popularity share w in (0, 1)
	trans  *access.DependencyGraph
	freq   map[int]int64
	total  int64
}

// newMixture returns an empty mixture source with popularity share w
// (in (0,1); validated by Config.Validate).
func newMixture(w float64) *mixtureSource {
	return &mixtureSource{
		weight: w,
		trans:  access.NewDependencyGraph(),
		freq:   map[int]int64{},
	}
}

// Name implements Source.
func (m *mixtureSource) Name() string { return string(KindMixture) }

// Observe implements Source.
func (m *mixtureSource) Observe(page int) {
	m.trans.Observe(page)
	m.freq[page]++
	m.total++
}

// Next implements Source. Both components normalise by integer counts,
// so every output value is a fixed-order expression per key and needs no
// sorted summation.
func (m *mixtureSource) Next(state int) map[int]float64 {
	out := map[int]float64{}
	if m.total == 0 {
		return out
	}
	trans := m.trans.Next(state)
	popShare := m.weight
	if len(trans) == 0 {
		// No transition evidence: the full mass escapes to popularity.
		popShare = 1
	}
	for page, p := range trans {
		out[page] = (1 - m.weight) * p
	}
	for page, n := range m.freq {
		out[page] += popShare * float64(n) / float64(m.total)
	}
	return out
}

// escCounts is one context's evidence for the escape PPM: successor
// counts plus their total (distinct successors are len(next)).
type escCounts struct {
	next  map[int]int64
	total int64
}

// ppmEscape is prediction by partial matching with PPM-C-style escape
// blending: instead of predicting only from the longest previously seen
// context (and falling off a configured cold-start cliff when even the
// order-1 context is unseen), each context order k contributes its
// normalised counts weighted by the probability that prediction did NOT
// escape past it, with the escape probability at each context set to
// distinct/(total+distinct). The leftover mass lands on the order-0
// global frequency model, so any source that has observed anything
// always predicts something.
type ppmEscape struct {
	order    int
	contexts map[string]*escCounts
	freq     map[int]int64
	total    int64
	history  []int
	key      []byte // context-key scratch; see access.AppendContextKey
}

// newPPMEscape returns an empty escape-PPM source of the given order
// (>= 1; validated by Config.Validate).
func newPPMEscape(order int) *ppmEscape {
	return &ppmEscape{
		order:    order,
		contexts: map[string]*escCounts{},
		freq:     map[int]int64{},
	}
}

// Name implements Source.
func (p *ppmEscape) Name() string { return fmt.Sprintf("ppm-escape-%d", p.order) }

// Observe implements Source.
func (p *ppmEscape) Observe(page int) {
	h := p.history
	for k := 1; k <= p.order && k <= len(h); k++ {
		p.key = access.AppendContextKey(p.key[:0], h[len(h)-k:])
		c := p.contexts[string(p.key)]
		if c == nil {
			c = &escCounts{next: map[int]int64{}}
			p.contexts[string(p.key)] = c
		}
		c.next[page]++
		c.total++
	}
	p.freq[page]++
	p.total++
	p.history = append(p.history, page)
	if len(p.history) > p.order {
		p.history = p.history[len(p.history)-p.order:]
	}
}

// Next implements Source. When the tracked history already ends at state
// (the normal online case) the full context is used; otherwise
// prediction reconditions on the order-1 context of state alone — the
// same explicit-state convention as access.PPM.Next.
func (p *ppmEscape) Next(state int) map[int]float64 {
	h := p.history
	if n := len(h); n == 0 || h[n-1] != state {
		h = []int{state}
	}
	out := map[int]float64{}
	remain := 1.0
	longest := p.order
	if len(h) < longest {
		longest = len(h)
	}
	for k := longest; k >= 1; k-- {
		p.key = access.AppendContextKey(p.key[:0], h[len(h)-k:])
		c := p.contexts[string(p.key)]
		if c == nil || c.total == 0 {
			continue
		}
		distinct := int64(len(c.next))
		escape := float64(distinct) / float64(c.total+distinct)
		w := remain * (1 - escape)
		for page, n := range c.next {
			out[page] += w * float64(n) / float64(c.total)
		}
		remain *= escape
	}
	if p.total > 0 {
		for page, n := range p.freq {
			out[page] += remain * float64(n) / float64(p.total)
		}
	}
	return out
}
