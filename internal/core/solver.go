package core

import (
	"fmt"
	"math"
)

// Solver is the SKP branch-and-bound of Figure 3: a depth-first search
// over the canonical order with the Theorem-2 bound and the Theorem-3
// incremental δ. Every one-step SKP entry point (SolveSKPOpts and its
// wrappers) runs on it. It keeps every piece of per-solve scratch
// (canonical order, profit/tail prefix tables, selection masks, the
// returned item list) between calls, so a simulation that solves one SKP
// per client round allocates nothing in steady state.
//
// The Plan returned by Solve aliases the solver's scratch: it is valid only
// until the next Solve call. Callers that retain plans must copy Items.
// A Solver is not safe for concurrent use; the simulators run one per
// event-loop goroutine.
type Solver struct {
	sorted  []Item
	profit  []float64
	tailP   []float64
	bestSel []bool
	cur     []bool
	out     []Item

	// per-solve state consulted by the recursive search
	totalProb    float64
	mode         DeltaMode
	stretchCost  float64
	disableBound bool
	best         float64
	stats        SolverStats
}

// NewSolver returns an empty solver; scratch grows on first use.
func NewSolver() *Solver { return &Solver{} }

// solverEps is the slack of the branch-and-bound searches: an incumbent is
// replaced only by a gain larger by more than solverEps, and a subtree is
// pruned when its bound does not exceed the incumbent by more than it.
const solverEps = 1e-12

// validate rejects a negative or non-finite StretchCost or NetworkLambda.
func (o Options) validate() error {
	if badKnob(o.StretchCost) || badKnob(o.NetworkLambda) {
		what := "non-finite"
		if o.StretchCost < 0 || o.NetworkLambda < 0 {
			what = "negative"
		}
		return fmt.Errorf("%w: %s StretchCost or NetworkLambda", ErrBadProblem, what)
	}
	return nil
}

// badKnob reports a solver knob that is not a finite number >= 0.
func badKnob(x float64) bool { return !(x >= 0) || math.IsInf(x, 0) }

// Solve runs the branch-and-bound over the solver's scratch. The returned
// Plan's Items slice is owned by the solver and overwritten by the next
// Solve.
func (s *Solver) Solve(p Problem, opts Options) (Plan, SolverStats, error) {
	s.stats = SolverStats{}
	if err := p.Validate(); err != nil {
		return Plan{}, s.stats, err
	}
	if err := opts.validate(); err != nil {
		return Plan{}, s.stats, err
	}
	n := len(p.Items)
	if n == 0 {
		return Plan{}, s.stats, nil
	}
	s.grow(n)
	s.totalProb = p.EffectiveTotalProb()
	s.mode = opts.Mode
	s.stretchCost = opts.StretchCost
	s.disableBound = opts.DisableBound

	copy(s.sorted, p.Items)
	sortCanonical(s.sorted)

	// profit[i] is the gain contribution of wholly prefetching item i:
	// P_i·r_i in the base model, reduced by the network-usage price when
	// λ > 0. Items with non-positive profit are still enumerated; they are
	// never inserted, since δ would be non-positive.
	lambda := opts.NetworkLambda
	for i := 0; i < n; i++ {
		it := s.sorted[i]
		s.profit[i] = it.Retrieval * ((1+lambda)*it.Prob - lambda)
	}
	// tailP[j] = Σ_{i>=j} P_i in canonical order (used by DeltaPaperTail).
	s.tailP[n] = 0
	for i := n - 1; i >= 0; i-- {
		s.tailP[i] = s.tailP[i+1] + s.sorted[i].Prob
	}

	s.best = 0 // the empty plan
	clear(s.bestSel)
	clear(s.cur)
	s.dfs(0, p.Viewing, 0, 0)

	s.out = s.out[:0]
	for i := 0; i < n; i++ {
		if s.bestSel[i] {
			s.out = append(s.out, s.sorted[i])
		}
	}
	return Plan{Items: s.out}, s.stats, nil
}

// grow resizes the scratch to hold n items.
func (s *Solver) grow(n int) {
	if cap(s.sorted) < n {
		s.sorted = make([]Item, n)
		s.profit = make([]float64, n)
		s.tailP = make([]float64, n+1)
		s.bestSel = make([]bool, n)
		s.cur = make([]bool, n)
	}
	s.sorted = s.sorted[:n]
	s.profit = s.profit[:n]
	s.tailP = s.tailP[:n+1]
	s.bestSel = s.bestSel[:n]
	s.cur = s.cur[:n]
}

// coeff returns the stretch-penalty coefficient for inserting item j as the
// stretching final item, given Σ P over the currently selected K. Both
// modes dominate profit[j]/r_j, which keeps the Dantzig bound sound
// (stretching never pays fractionally).
func (s *Solver) coeff(j int, sumPK float64) float64 {
	base := s.totalProb - sumPK
	if s.mode == DeltaPaperTail {
		base = s.tailP[j]
	}
	return base + s.stretchCost
}

// bound is the Dantzig fractional-fill upper bound on additional profit
// from items j..n-1 under the residual capacity.
func (s *Solver) bound(j int, residual float64) float64 {
	var u float64
	for i := j; i < len(s.sorted); i++ {
		if s.profit[i] <= 0 {
			continue // canonical order is not profit-sorted once λ > 0 clamps
		}
		if s.sorted[i].Retrieval <= residual {
			u += s.profit[i]
			residual -= s.sorted[i].Retrieval
			continue
		}
		if residual > 0 {
			u += s.profit[i] * residual / s.sorted[i].Retrieval
		}
		break
	}
	return u
}

// record keeps the incumbent if g improves it; extra >= 0 marks a
// stretching item selected on top of cur.
func (s *Solver) record(g float64, extra int) {
	if g > s.best+solverEps {
		s.best = g
		copy(s.bestSel, s.cur)
		if extra >= 0 {
			s.bestSel[extra] = true
		}
	}
}

// dfs decides item j: first insert it (as the stretching final item when
// it overruns the residual, which completes the plan), then exclude it.
func (s *Solver) dfs(j int, residual, g, sumPK float64) {
	s.stats.Nodes++
	s.record(g, -1)
	if j == len(s.sorted) || residual <= 0 {
		return
	}
	if !s.disableBound && g+s.bound(j, residual) <= s.best+solverEps {
		s.stats.Prunes++
		return
	}
	it := s.sorted[j]
	st := Stretch(it.Retrieval, residual)
	switch {
	case st > 0:
		if delta := s.profit[j] - s.coeff(j, sumPK)*st; delta > 0 {
			s.record(g+delta, j)
		}
	case s.profit[j] > 0:
		s.cur[j] = true
		s.dfs(j+1, residual-it.Retrieval, g+s.profit[j], sumPK+it.Prob)
		s.cur[j] = false
	}
	s.dfs(j+1, residual, g, sumPK)
}
