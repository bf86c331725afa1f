// Package sim contains the Monte-Carlo harnesses that reproduce the
// paper's evaluation: the "prefetch only" simulation behind Figures 4 and 5
// (§4.4), the prefetch-cache simulation behind Figure 7 (§5.3), and a
// netsim-backed Markov session that exposes the stretch-intrusion effect
// the one-step model ignores (used by the lookahead ablation).
package sim

import (
	"errors"
	"fmt"

	"prefetch/internal/core"
)

// ErrBadSim reports invalid simulation configuration.
var ErrBadSim = errors.New("sim: bad simulation config")

// Policy decides what to prefetch for a round's decision problem.
type Policy interface {
	// Name labels the policy in results and figure legends.
	Name() string
	// Plan returns the prefetch plan for the problem.
	Plan(p core.Problem) (core.Plan, error)
}

// NoPrefetch never prefetches (the paper's "no prefetch" series).
type NoPrefetch struct{}

// Name implements Policy.
func (NoPrefetch) Name() string { return "none" }

// Plan implements Policy.
func (NoPrefetch) Plan(core.Problem) (core.Plan, error) { return core.Plan{}, nil }

// SKPPolicy prefetches the stretch-knapsack solution. Mode selects the
// Theorem-3-correct δ (default) or the literal Figure-3 tail δ.
type SKPPolicy struct {
	Mode core.DeltaMode
}

// Name implements Policy.
func (p SKPPolicy) Name() string {
	if p.Mode == core.DeltaPaperTail {
		return "skp-paper"
	}
	return "skp"
}

// Plan implements Policy.
func (p SKPPolicy) Plan(prob core.Problem) (core.Plan, error) {
	plan, _, err := core.SolveSKPOpts(prob, core.Options{Mode: p.Mode})
	return plan, err
}

// KPPolicy prefetches the classic knapsack solution (never stretches).
type KPPolicy struct{}

// Name implements Policy.
func (KPPolicy) Name() string { return "kp" }

// Plan implements Policy.
func (KPPolicy) Plan(p core.Problem) (core.Plan, error) { return core.SolveKP(p) }

// GreedyPolicy prefetches the density-greedy fill (ablation baseline).
type GreedyPolicy struct{}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }

// Plan implements Policy.
func (GreedyPolicy) Plan(p core.Problem) (core.Plan, error) { return core.SolveGreedyPrefetch(p) }

// StretchAwarePolicy prices the stretch at a fixed extra cost (the depth-2
// lookahead surrogate; see core.SolveSKPStretchAware).
type StretchAwarePolicy struct {
	Cost float64
}

// Name implements Policy.
func (p StretchAwarePolicy) Name() string { return fmt.Sprintf("skp-sa%.2g", p.Cost) }

// Plan implements Policy.
func (p StretchAwarePolicy) Plan(prob core.Problem) (core.Plan, error) {
	plan, _, err := core.SolveSKPStretchAware(prob, p.Cost)
	return plan, err
}

// CostAwarePolicy trades access improvement against network usage at rate
// Lambda (paper §6 future work; see core.SolveSKPCostAware).
type CostAwarePolicy struct {
	Lambda float64
}

// Name implements Policy.
func (p CostAwarePolicy) Name() string { return fmt.Sprintf("skp-λ%.2g", p.Lambda) }

// Plan implements Policy.
func (p CostAwarePolicy) Plan(prob core.Problem) (core.Plan, error) {
	plan, _, err := core.SolveSKPCostAware(prob, p.Lambda)
	return plan, err
}

// PerfectPolicy is the oracle: it always prefetches exactly the item that
// will be requested (the paper's "perfect prefetch" series). The harness
// special-cases it because the oracle must see the request.
type PerfectPolicy struct{}

// Name implements Policy.
func (PerfectPolicy) Name() string { return "perfect" }

// Plan implements Policy; without the request it cannot do better than
// nothing, so the harness must use PlanOracle.
func (PerfectPolicy) Plan(core.Problem) (core.Plan, error) { return core.Plan{}, nil }

// PlanOracle returns the plan containing only the requested item.
func (PerfectPolicy) PlanOracle(p core.Problem, requested int) core.Plan {
	if it, ok := p.ItemByID(requested); ok {
		return core.Plan{Items: []core.Item{it}}
	}
	return core.Plan{}
}
