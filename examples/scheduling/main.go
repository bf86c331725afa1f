// Scheduling: PR 1's multiclient demo showed speculative prefetching
// collapsing under contention — at a FIFO server, one client's speculation
// queues ahead of everyone else's demand fetches. This demo swaps the
// server's scheduling discipline (internal/schedsrv) over the identical
// workload and tabulates the trade every discipline makes between demand
// latency and speculative throughput as the client count grows:
//
//   - fifo      — the seed behaviour; speculation and demand queue equally.
//   - priority  — strict demand priority: demand T collapses back toward
//     the uncontended value, speculation runs only in the gaps.
//   - wfq       — weighted fair queueing (demand:spec = 4:1): between the
//     two, with per-client isolation.
//   - shaped    — per-client token buckets: speculation throttled at the
//     source, demand never queues behind a flood.
//
// A second table adds utilisation-gated admission control to FIFO: above
// the threshold the server refuses new speculation outright, recovering
// most of priority's demand latency without reordering anything.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"prefetch"
)

func main() {
	cfg := prefetch.DefaultMultiClientConfig()
	cfg.Rounds = 120
	cfg.Seed = 2026

	kinds := prefetch.SchedKinds()
	ns := []int{2, 4, 8, 16, 32}
	const reps = 3

	fmt.Printf("site of %d pages, server concurrency %d, %d rounds/client, %d reps\n",
		cfg.Site.Pages, cfg.ServerConcurrency, cfg.Rounds, reps)
	fmt.Println("\n-- scheduling disciplines: demand latency vs speculative throughput --")
	header()
	for _, n := range ns {
		cfg.Clients = n
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true, prefetch.MultiClientDisciplineAxis(kinds))
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range points {
			row(n, string(kinds[i]), p)
		}
		fmt.Println()
	}

	fmt.Println("-- fifo + admission control (drop speculation above 85% utilisation) --")
	cfg.Sched = prefetch.SchedConfig{AdmitUtil: 0.85, AdmitWindow: 50}
	header()
	for _, n := range ns {
		cfg.Clients = n
		points, err := prefetch.SweepMultiClientGrid(cfg, reps, 0, true,
			prefetch.MultiClientDisciplineAxis([]prefetch.SchedKind{prefetch.SchedFIFO}))
		if err != nil {
			log.Fatal(err)
		}
		row(n, "fifo+admit", points[0])
	}

	fmt.Println("\nFIFO burns the server on stale speculation and every demand pays for")
	fmt.Println("it; demand priority restores interactive latency at scale and prices")
	fmt.Println("speculation at exactly the idle bandwidth; WFQ buys isolation between")
	fmt.Println("clients on top; shaping and admission control cap speculation at the")
	fmt.Println("source — the knob the paper's single-client model never needed.")
}

func header() {
	fmt.Printf("%-8s %-11s %10s %10s %10s %8s %10s\n",
		"clients", "discipline", "demand T", "mean T", "spec/s", "drops", "improve%")
}

func row(n int, label string, p prefetch.MultiClientPoint) {
	fmt.Printf("%-8d %-11s %10.3f %10.3f %10.3f %8d %9.1f%%\n",
		n, label, p.DemandAccess.Mean(), p.Access.Mean(),
		p.SpecThroughput.Mean(), p.PrefetchDropped, 100*p.Improvement.Mean())
}
