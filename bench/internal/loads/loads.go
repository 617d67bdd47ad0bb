package loads

import "chopper/bench/internal/harness"

// All returns the five workloads in BENCHMARK.json order.
func All() []harness.Workload {
	return []harness.Workload{
		NewEngineCompute(),
		NewEngineShuffle(),
		NewTuneSweep(),
		NewServeRead(),
		NewFleetWrite(),
	}
}
