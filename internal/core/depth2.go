package core

import "fmt"

// This file implements the exact depth-2 objective, upgrading the linear
// surrogate of SolveSKPLookahead. The two-step value of a plan F for the
// current decision is
//
//	V(F) = g°(F) + Σ_ξ P_ξ · G*(succ(ξ), v_ξ − st(F))
//
// where G*(q, v) is the optimal one-step gain of the successor problem q
// with its viewing time reduced by the stretch F carries into it (§4.4).
// Because the continuation value depends on F only through st(F), the
// branch-and-bound needs just one extra ingredient: h(st) = Σ P_ξ·G*(ξ, v_ξ−st),
// a non-increasing function evaluated lazily and memoised per distinct
// stretch value (retrieval times are typically integral, so few values
// occur). The Theorem-2 prune remains sound with h(0) added on top, since
// h is maximal at zero stretch.

// Depth2Stats extends SolverStats with continuation-solve accounting.
type Depth2Stats struct {
	SolverStats
	ContinuationSolves int64 // inner one-step SKP solves (after memoisation)
}

// SolveSKPDepth2 maximises the exact two-step objective over the canonical
// search space. Successor weights are the transition probabilities P_ξ;
// each successor problem should carry that state's own candidates and
// viewing time. Inner problems are solved with the one-step SolveSKP
// search, on one Solver reused across the memoised continuation solves.
func SolveSKPDepth2(p Problem, successors []WeightedProblem) (Plan, Depth2Stats, error) {
	var stats Depth2Stats
	if err := p.Validate(); err != nil {
		return Plan{}, stats, err
	}
	for i, wp := range successors {
		if wp.Weight < 0 {
			return Plan{}, stats, fmt.Errorf("%w: successor %d weight %v", ErrBadProblem, i, wp.Weight)
		}
		if err := wp.Problem.Validate(); err != nil {
			return Plan{}, stats, fmt.Errorf("successor %d: %w", i, err)
		}
	}
	sorted := CanonicalOrder(p.Items)
	n := len(sorted)
	totalProb := p.EffectiveTotalProb()

	// h(st): expected optimal continuation gain when carrying st into the
	// next round. Memoised; h(0) is the anchor used by the bound.
	memo := map[float64]float64{}
	solver := NewSolver()
	h := func(st float64) float64 {
		if v, ok := memo[st]; ok {
			return v
		}
		var total float64
		for _, wp := range successors {
			if wp.Weight == 0 {
				continue
			}
			q := wp.Problem
			q.Viewing -= st
			if q.Viewing < 0 {
				q.Viewing = 0
			}
			plan, _, err := solver.Solve(q, Options{})
			if err != nil {
				// Successors were validated; reducing v cannot invalidate.
				panic(fmt.Sprintf("core: continuation solve failed: %v", err))
			}
			stats.ContinuationSolves++
			g := gainUnchecked(q, plan) // read before the next Solve reuses plan.Items
			total += wp.Weight * g
		}
		memo[st] = total
		return total
	}
	h0 := h(0)

	best := h0 // the empty plan: no stretch, full continuation value
	bestSel := make([]bool, n)
	cur := make([]bool, n)

	record := func(v float64, extra int) {
		if v > best+solverEps {
			best = v
			copy(bestSel, cur)
			if extra >= 0 {
				bestSel[extra] = true
			}
		}
	}

	var dfs func(j int, residual, g, sumPK float64)
	dfs = func(j int, residual, g, sumPK float64) {
		stats.Nodes++
		record(g+h0, -1) // current non-stretching plan keeps h(0)
		if j == n || residual <= 0 {
			return
		}
		// Bound: remaining one-step gain can't exceed the Dantzig fill and
		// the continuation can't exceed h(0).
		if g+dantzigGain(sorted, j, residual)+h0 <= best+solverEps {
			stats.Prunes++
			return
		}
		it := sorted[j]
		st := Stretch(it.Retrieval, residual)
		if st > 0 {
			delta := it.Prob*it.Retrieval - (totalProb-sumPK)*st
			record(g+delta+h(st), j)
		} else if it.Prob > 0 {
			cur[j] = true
			dfs(j+1, residual-it.Retrieval, g+it.Prob*it.Retrieval, sumPK+it.Prob)
			cur[j] = false
		}
		dfs(j+1, residual, g, sumPK)
	}
	dfs(0, p.Viewing, 0, 0)

	plan := Plan{}
	for i, takeIt := range bestSel {
		if takeIt {
			plan.Items = append(plan.Items, sorted[i])
		}
	}
	return plan, stats, nil
}

// Depth2Value evaluates the exact two-step objective of a given plan:
// g°(F) plus the probability-weighted optimal continuation under the
// stretch F carries forward.
func Depth2Value(p Problem, plan Plan, successors []WeightedProblem) (float64, error) {
	g, err := Gain(p, plan)
	if err != nil {
		return 0, err
	}
	st := plan.Stretch(p.Viewing)
	var cont float64
	for i, wp := range successors {
		if wp.Weight < 0 {
			return 0, fmt.Errorf("%w: successor %d weight %v", ErrBadProblem, i, wp.Weight)
		}
		if wp.Weight == 0 {
			continue
		}
		q := wp.Problem
		q.Viewing -= st
		if q.Viewing < 0 {
			q.Viewing = 0
		}
		inner, _, err := SolveSKP(q)
		if err != nil {
			return 0, fmt.Errorf("successor %d: %w", i, err)
		}
		gi, err := Gain(q, inner)
		if err != nil {
			return 0, err
		}
		cont += wp.Weight * gi
	}
	return g + cont, nil
}
