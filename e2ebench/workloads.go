package main

import "pepscale/internal/core"

// workloads are the benchmark's named workloads. README.md records why each
// was chosen and which layers it stresses.
var workloads = []workload{
	searchWorkload{name: "search-a-fragidx", algo: core.AlgoA, ranks: 4, scan: core.ScanModeFragIdx, seqs: 1000, queries: 500, sets: 1},
	searchWorkload{name: "search-b-fewq", algo: core.AlgoB, ranks: 8, scan: core.ScanModePeptideMajor, seqs: 30000, queries: 32, sets: 8},
	pepdWorkload{name: "pepd-churn", seqs: 2000, pool: 1000, members: 4, spares: 2, churn: 12, horizon: 120, limit: 2.0, refRate: 10},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.workloadName()
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.workloadName() == name {
			return w, true
		}
	}
	return nil, false
}
