package multiclient

import (
	"fmt"
	"strconv"

	"prefetch/internal/adaptive"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
	"prefetch/internal/stats"
	"prefetch/internal/sweep"
)

// Axis is one labelled dimension of a multiclient sweep (client count,
// discipline, controller, predictor — or any caller-defined mutation of
// Config). Axes compose: Sweep runs the full cross product.
type Axis = sweep.Axis[Config]

// AxisValue is one labelled setting on an Axis.
type AxisValue = sweep.AxisValue[Config]

// ClientsAxis sweeps the concurrent client count over ns.
func ClientsAxis(ns []int) (Axis, error) {
	ax := Axis{Name: "clients"}
	for _, n := range ns {
		if n < 1 {
			return Axis{}, fmt.Errorf("%w: %d clients in sweep axis", ErrBadConfig, n)
		}
		n := n
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.Itoa(n),
			Apply: func(c *Config) { c.Clients = n },
		})
	}
	return ax, nil
}

// DisciplineAxis sweeps the scheduling discipline, preserving every
// non-Kind field of the scheduling config (weights, shaping rate,
// admission threshold; the preemption flag only where valid).
func DisciplineAxis(kinds []schedsrv.Kind) Axis {
	ax := Axis{Name: "discipline"}
	for _, k := range kinds {
		k := k
		ax.Values = append(ax.Values, AxisValue{
			Label: string(k),
			Apply: func(c *Config) { c.Sched = schedFor(c.Sched, k) },
		})
	}
	return ax
}

// ControllerAxis sweeps the adaptive λ controller kind.
func ControllerAxis(kinds []adaptive.Kind) Axis {
	ax := Axis{Name: "controller"}
	for _, k := range kinds {
		k := k
		ax.Values = append(ax.Values, AxisValue{
			Label: string(k),
			Apply: func(c *Config) { c.Adaptive.Kind = k },
		})
	}
	return ax
}

// PredictorAxis sweeps the prediction source kind.
func PredictorAxis(kinds []predict.Kind) Axis {
	ax := Axis{Name: "predictor"}
	for _, k := range kinds {
		k := k
		ax.Values = append(ax.Values, AxisValue{
			Label: string(k),
			Apply: func(c *Config) { c.Predict.Kind = k },
		})
	}
	return ax
}

// Point is one cell of a sweep grid: the axis labels that select it and
// the union of every metric the per-axis sweeps report, folded over the
// seed replications. Merged accumulators pool every underlying
// observation; per-rep accumulators hold one observation per
// replication; the int64 counters are summed over replications.
// Improvement is only populated when the sweep ran with a baseline leg.
type Point struct {
	Labels  []string // one label per axis, in axis order
	Config  Config   // the combined configuration (rep-0 seed)
	Clients int
	Reps    int

	Access       stats.Accumulator // every round of every rep merged
	DemandAccess stats.Accumulator // every fetching round merged
	QueueWait    stats.Accumulator // every server transfer merged
	Lambda       stats.Accumulator // every planned round's λ merged
	L1Error      stats.Accumulator // every planned round's prediction L1 error merged

	Utilization    stats.Accumulator // one observation per rep
	Improvement    stats.Accumulator // one aggregate improvement per rep (baseline sweeps only)
	SpecThroughput stats.Accumulator // one speculative-throughput obs per rep
	HitRatio       stats.Accumulator // one no-fetch round fraction per rep
	WastedFraction stats.Accumulator // one wasted-prefetch fraction per rep

	Preemptions      int64 // summed over reps
	PrefetchIssued   int64
	PrefetchDropped  int64
	PrefetchDeferred int64
	PrefetchComplete int64
	PrefetchUseful   int64
	WarmInserted     int64
	WarmHits         int64
}

// fold accumulates one replication into the point, in replication
// order — the merge order is part of the sweep's determinism contract.
func (p *Point) fold(cmp Comparison, baseline bool) {
	res := cmp.Prefetch
	p.Access.Merge(&res.Access)
	p.DemandAccess.Merge(&res.DemandAccess)
	p.QueueWait.Merge(&res.QueueWait)
	p.Lambda.Merge(&res.Lambda)
	p.L1Error.Merge(&res.L1Error)
	p.Utilization.Add(res.Utilization())
	if baseline {
		p.Improvement.Add(cmp.Improvement())
	}
	p.SpecThroughput.Add(res.SpecThroughput())
	p.HitRatio.Add(res.HitRatio())
	p.WastedFraction.Add(res.WastedPrefetchFraction())
	p.Preemptions += res.Preemptions
	p.PrefetchDropped += res.PrefetchDropped
	p.PrefetchDeferred += res.PrefetchDeferred
	p.PrefetchComplete += res.PrefetchCompleted
	p.PrefetchUseful += res.PrefetchUseful
	p.WarmInserted += res.WarmInserted
	p.WarmHits += res.WarmHits
	for _, pc := range res.PerClient {
		p.PrefetchIssued += pc.PrefetchIssued
	}
}

// Sweep is THE sweep engine: it runs the full cross product of axes
// over cfg (row-major, the first axis varying slowest), replicating
// each grid point with reps derived seeds (rep r uses master seed
// cfg.Seed + r) across the sweep worker pool. With baseline set, every
// task runs both the prefetching configuration and its no-prefetch
// baseline (Compare) so each point carries an access-improvement
// estimate; without it only the prefetch leg runs. Every combination
// is validated before any simulation starts, and tasks derive all
// randomness from their own (seed, client) pairs, so the result is
// independent of worker scheduling. The fleet's router×replicas sweep
// (package fleet) runs on the same grid machinery.
func Sweep(cfg Config, reps, workers int, baseline bool, axes ...Axis) ([]Point, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("%w: %d replications", ErrBadConfig, reps)
	}
	cells, err := sweep.Grid(cfg, axes, reps, workers,
		func(c Config) error { return c.Validate() },
		func(c Config, rep int) (Comparison, error) {
			c.Seed = cfg.Seed + uint64(rep)
			if baseline {
				return Compare(c)
			}
			res, err := Run(c)
			return Comparison{Prefetch: res}, err
		})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(cells))
	for i, cell := range cells {
		points[i].Labels = cell.Labels
		points[i].Config = cell.Config
		points[i].Clients = cell.Config.Clients
		points[i].Reps = reps
		for _, cmp := range cell.Results {
			points[i].fold(cmp, baseline)
		}
	}
	return points, nil
}

// schedFor swaps the discipline kind into a scheduling config, keeping
// kind-specific options only where they are valid.
func schedFor(base schedsrv.Config, kind schedsrv.Kind) schedsrv.Config {
	c := base
	c.Kind = kind
	if kind != schedsrv.KindPriority {
		c.Preempt = false
	}
	return c
}

// ParetoFrontier reports which points of one group are on the (mean
// demand latency ↓, mean speculative throughput ↑) Pareto frontier: a
// point is dominated when another point is at least as good on both
// objectives and strictly better on one. Within one controller's row of
// predictors it is the reporting slice that makes a weak predictor
// visible even when an adaptive controller masks it in raw latency.
//
// Tie handling: domination requires a strict improvement on at least one
// objective, so a point can never dominate an exact duplicate of itself.
// Points with identical (demand latency, spec/s) are therefore always
// marked together — both on the frontier, or both dominated by a
// strictly better third point — and the full pairwise scan makes the
// result independent of slice order.
func ParetoFrontier(group []Point) []bool {
	front := make([]bool, len(group))
	for i := range group {
		dominated := false
		di, si := group[i].DemandAccess.Mean(), group[i].SpecThroughput.Mean()
		for j := range group {
			if i == j {
				continue
			}
			dj, sj := group[j].DemandAccess.Mean(), group[j].SpecThroughput.Mean()
			if dj <= di && sj >= si && (dj < di || sj > si) {
				dominated = true
				break
			}
		}
		front[i] = !dominated
	}
	return front
}
