// Learned: every demo so far handed the planner the surfer's true
// next-page distribution — the paper's presupposed access knowledge, an
// oracle no deployed prefetcher has. This demo swaps the oracle for the
// prediction subsystem's learned sources (internal/predict) and measures
// what the oracle-vs-learned gap costs under contention, per scheduling
// discipline and per λ controller:
//
//   - oracle    — the true distribution (the paper's assumption);
//   - depgraph  — an order-1 dependency graph learned online from each
//     client's own access stream;
//   - ppm       — order-2 prediction by partial matching, same stream.
//
// Two questions drive the tables. First, the raw gap: how much demand
// latency and wasted prefetching does a learned model cost at N=16 under
// each discipline? Second, the masking question (ROADMAP): adaptive λ
// control rescues the oracle planner from contention collapse — does that
// win survive when the distribution is learned, and does the controller
// hide a weak predictor? The per-controller Pareto marks (* on the
// (demand T, spec/s) frontier) keep weak predictors visible even when
// closed-loop λ flattens raw latency differences.
//
//	go run ./examples/learned
package main

import (
	"fmt"
	"log"

	"prefetch"
)

func main() {
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Clients = 16
	cfg.Rounds = 120
	cfg.Seed = 2026

	preds := []prefetch.PredictorKind{
		prefetch.PredictorOracle, prefetch.PredictorDepGraph, prefetch.PredictorPPM,
	}
	ctls := []prefetch.ControllerKind{prefetch.ControllerStatic, prefetch.ControllerAIMD}
	discs := []prefetch.SchedKind{prefetch.SchedFIFO, prefetch.SchedPriority}
	const reps = 2

	fmt.Printf("oracle vs learned prefetching, %d clients, server concurrency %d, %d rounds/client, %d reps\n",
		cfg.Clients, cfg.ServerConcurrency, cfg.Rounds, reps)
	fmt.Println("(* = on the controller's (demand T, spec/s) Pareto frontier)")

	// gap[disc][ctl][pred] demand access means, for the closing summary.
	gap := map[prefetch.SchedKind]map[prefetch.ControllerKind]map[prefetch.PredictorKind]float64{}
	for _, disc := range discs {
		c := cfg
		c.Sched = prefetch.SchedConfig{Kind: disc}
		// Controller-major grid, no baseline leg: the comparison is
		// relative, so the doubled cost would buy nothing.
		points, err := prefetch.SweepMultiClientGrid(c, reps, 0, false,
			prefetch.MultiClientControllerAxis(ctls), prefetch.MultiClientPredictorAxis(preds))
		if err != nil {
			log.Fatal(err)
		}
		gap[disc] = map[prefetch.ControllerKind]map[prefetch.PredictorKind]float64{}
		for ci, ctl := range ctls {
			fmt.Printf("\n-- discipline %s, controller %s --\n", disc, ctl)
			fmt.Printf("%-10s %10s %10s %8s %8s %8s %10s %7s\n",
				"predictor", "demand T", "mean T", "waste%", "L1 err", "hit%", "spec/s", "pareto")
			gap[disc][ctl] = map[prefetch.PredictorKind]float64{}
			row := points[ci*len(preds) : (ci+1)*len(preds)]
			front := prefetch.MultiClientParetoFrontier(row)
			for pi, pred := range preds {
				p := row[pi]
				mark := ""
				if front[pi] {
					mark = "*"
				}
				fmt.Printf("%-10s %10.3f %10.3f %7.1f%% %8.3f %7.1f%% %10.4f %7s\n",
					pred, p.DemandAccess.Mean(), p.Access.Mean(),
					100*p.WastedFraction.Mean(), p.L1Error.Mean(),
					100*p.HitRatio.Mean(), p.SpecThroughput.Mean(), mark)
				gap[disc][ctl][pred] = p.DemandAccess.Mean()
			}
		}
	}

	f := gap[prefetch.SchedFIFO]
	fmt.Printf("\nAdaptive-λ win at N=16 FIFO (static → aimd demand T):\n")
	for _, pred := range preds {
		fmt.Printf("  %-10s %8.2f → %5.2f  (%.1fx)\n", pred,
			f[prefetch.ControllerStatic][pred], f[prefetch.ControllerAIMD][pred],
			f[prefetch.ControllerStatic][pred]/f[prefetch.ControllerAIMD][pred])
	}

	fmt.Println("\nThe oracle floods the shared server with confident speculation, so at")
	fmt.Println("static λ its perfect knowledge buys the worst demand latency on FIFO —")
	fmt.Println("cold-started learned models speculate less and queue less. Closed-loop")
	fmt.Println("λ control erases most of that difference: once congestion prices")
	fmt.Println("speculation, every predictor converges to near-certain prefetches only,")
	fmt.Println("and raw latency no longer separates oracle from learned — exactly the")
	fmt.Println("masking the Pareto marks expose: the learned rows buy their latency")
	fmt.Println("with less speculative throughput delivered (and the waste% and L1")
	fmt.Println("columns show the prediction quality behind it).")
}
