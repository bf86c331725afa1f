package access

import (
	"fmt"
	"strconv"
)

// DependencyGraph and PPM learn an access model online and predict the
// distribution of the next access — the "access model" the paper
// presupposes (§1, §6). The two implementations follow the related-work
// lineage: DependencyGraph (Padmanabhan & Mogul's server-side dependency
// graph, order 1) and PPM (Vitter & Krishnan's compression-based
// prediction, order k with escape). Both satisfy the prediction
// subsystem's Source interface (internal/predict — the one public
// predictor interface): Observe feeds the access stream, Next(state)
// predicts from an explicit state, and Predict() remains as the
// convenience form that predicts from the internally tracked context.

// DependencyGraph is an order-1 transition-count predictor: each observed
// pair (previous, next) increments an edge counter, and prediction
// normalises the outgoing counts of the queried item.
type DependencyGraph struct {
	edges map[int]map[int]int64
	outN  map[int]int64
	last  int
	any   bool
}

// NewDependencyGraph returns an empty dependency-graph predictor.
func NewDependencyGraph() *DependencyGraph {
	return &DependencyGraph{edges: map[int]map[int]int64{}, outN: map[int]int64{}}
}

// Name identifies the predictor.
func (d *DependencyGraph) Name() string { return "depgraph" }

// Observe feeds the next item of the access sequence.
func (d *DependencyGraph) Observe(item int) {
	if d.any {
		m := d.edges[d.last]
		if m == nil {
			m = map[int]int64{}
			d.edges[d.last] = m
		}
		m[item]++
		d.outN[d.last]++
	}
	d.last = item
	d.any = true
}

// Predict returns the prediction from the last observed item, or an
// empty map before any observation.
func (d *DependencyGraph) Predict() map[int]float64 {
	if !d.any {
		return map[int]float64{}
	}
	return d.Next(d.last)
}

// Next returns the predicted distribution of the item following state:
// the normalised outgoing edge counts of state. Empty when state has no
// observed successors.
func (d *DependencyGraph) Next(state int) map[int]float64 {
	out := map[int]float64{}
	total := d.outN[state]
	if total == 0 {
		return out
	}
	for item, c := range d.edges[state] {
		out[item] = float64(c) / float64(total)
	}
	return out
}

// PPM is an order-k prediction-by-partial-matching predictor: it keeps
// counts for every context of length 1..k and predicts from the longest
// context that has been seen before (a simplified PPM without blending,
// following the prediction use in Vitter & Krishnan).
type PPM struct {
	order    int
	contexts map[string]*ctxCounts
	history  []int
	key      []byte // context-key scratch; see AppendContextKey
}

type ctxCounts struct {
	next  map[int]int64
	total int64
}

// NewPPM returns a PPM predictor of the given order (>= 1).
func NewPPM(order int) (*PPM, error) {
	if order < 1 {
		return nil, fmt.Errorf("%w: PPM order %d", ErrBadConfig, order)
	}
	return &PPM{order: order, contexts: map[string]*ctxCounts{}}, nil
}

// Name identifies the predictor.
func (p *PPM) Name() string { return fmt.Sprintf("ppm-%d", p.order) }

// Order returns the configured context order.
func (p *PPM) Order() int { return p.order }

// AppendContextKey appends the key of a context window to dst and
// returns the extended slice: each item in decimal followed by a comma,
// which is compact and unambiguous. It is the one context-key encoding
// of the PPM-family predictors. Looking a key up as m[string(key)] does
// not allocate, so callers keep one scratch buffer and pay for a string
// only when they insert a new context.
func AppendContextKey(dst []byte, items []int) []byte {
	for _, it := range items {
		dst = strconv.AppendInt(dst, int64(it), 10)
		dst = append(dst, ',')
	}
	return dst
}

// Observe feeds the next item of the access sequence.
func (p *PPM) Observe(item int) {
	h := p.history
	for k := 1; k <= p.order && k <= len(h); k++ {
		p.key = AppendContextKey(p.key[:0], h[len(h)-k:])
		c := p.contexts[string(p.key)]
		if c == nil {
			c = &ctxCounts{next: map[int]int64{}}
			p.contexts[string(p.key)] = c
		}
		c.next[item]++
		c.total++
	}
	p.history = append(p.history, item)
	if len(p.history) > p.order {
		p.history = p.history[len(p.history)-p.order:]
	}
}

// Predict returns the prediction from the internally tracked context
// (the most recent observations), escaping to shorter contexts as needed.
func (p *PPM) Predict() map[int]float64 {
	return p.predictFrom(p.history)
}

// Next returns the predicted distribution of the item following state.
// When the tracked history already ends at state (the normal online case)
// the full context is used; otherwise prediction falls back to the
// order-1 context of state alone.
func (p *PPM) Next(state int) map[int]float64 {
	h := p.history
	if n := len(h); n == 0 || h[n-1] != state {
		h = []int{state}
	}
	return p.predictFrom(h)
}

// predictFrom predicts from the longest previously seen suffix of h.
func (p *PPM) predictFrom(h []int) map[int]float64 {
	out := map[int]float64{}
	for k := min(p.order, len(h)); k >= 1; k-- {
		p.key = AppendContextKey(p.key[:0], h[len(h)-k:])
		c := p.contexts[string(p.key)]
		if c == nil || c.total == 0 {
			continue // escape to a shorter context
		}
		for item, n := range c.next {
			out[item] = float64(n) / float64(c.total)
		}
		return out
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
