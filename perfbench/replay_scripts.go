package main

import (
	"prefetch/internal/multiclient"
	"prefetch/internal/webgraph"
)

// replayScripts times Phase A — multiclient.GenerateScripts on the
// workload's config and site — and reports whether it applies: a
// shared-predictor run keeps the unscripted inline path. It sits in its
// own file because GenerateScripts is slated to change; dropping this
// metric touches nothing else.
func replayScripts(cfg multiclient.Config, site *webgraph.Site) (seconds float64, scriptable bool, err error) {
	if !multiclient.Scriptable(cfg) {
		return 0, false, nil
	}
	seconds = timeReps(func() {
		if _, e := multiclient.GenerateScripts(cfg, site); e != nil {
			err = e
		}
	})
	return seconds, true, err
}
