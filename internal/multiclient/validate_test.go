package multiclient

import (
	"errors"
	"testing"

	"prefetch/internal/adaptive"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
)

// Regression test for the validatecfg sweep: the sweep engine must
// reject an invalid base config on entry, along every axis, before any
// task is built or dispatched, rather than letting the error surface
// from a worker deep inside the parallel sweep (or, worse, letting a
// partially valid config produce NaN-tainted points).
func TestSweepsValidateBaseConfig(t *testing.T) {
	bad := testConfig()
	bad.MeanViewing = -1 // invalid: Validate requires MeanViewing > 0

	clients, err := ClientsAxis([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	axes := map[string][]Axis{
		"clients":    {clients},
		"discipline": {DisciplineAxis([]schedsrv.Kind{schedsrv.KindFIFO})},
		"controller": {ControllerAxis([]adaptive.Kind{adaptive.KindStatic})},
		"predictor":  {PredictorAxis([]predict.Kind{predict.KindOracle})},
		"controller×predictor": {
			ControllerAxis([]adaptive.Kind{adaptive.KindStatic}),
			PredictorAxis([]predict.Kind{predict.KindOracle}),
		},
	}
	for name, ax := range axes {
		for _, baseline := range []bool{false, true} {
			if _, err := Sweep(bad, 1, 0, baseline, ax...); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s (baseline %v): err = %v, want ErrBadConfig", name, baseline, err)
			}
		}
	}
}
