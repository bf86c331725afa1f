package main

import "prefetch/internal/fleet"

// replayRoute times Router.Route for the workload's router over its
// replica states (all replicas up), on the traced run's (client, page)
// accesses. It reports false for a single-server workload, which has no
// router. It sits in its own file because the fleet layer is slated to
// merge into multiclient; dropping this metric touches nothing else.
func replayRoute(in *replayInputs, spec *fleetSpec) (ns float64, routed bool, err error) {
	if spec == nil {
		return 0, false, nil
	}
	router, err := fleet.NewRouter(spec.router, spec.replicas)
	if err != nil {
		return 0, false, err
	}
	states := make([]fleet.ReplicaState, spec.replicas)
	for i := range states {
		states[i] = fleet.ReplicaState{ID: i, Up: true}
	}
	d := timeReps(func() {
		for c, ct := range in.traces {
			for _, p := range ct.pages {
				id, _ := router.Route(c, int(p), states)
				sink += id
			}
		}
	})
	return nsPer(d, in.accesses), true, nil
}
