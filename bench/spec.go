package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Metric is one entry of BENCHMARK.json's metric lists.
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = []struct{ Name, Why string }{
	{"engine-compute", "KMeans+PCA jobs on vanilla sessions: map-side compute dominates, shuffle is bypassed (control for shuffle/serving changes). Batch: op_p50_ms = op_tail_ms = round_ms"},
	{"engine-shuffle", "SQL+PageRank jobs: the shuffle data path (partition, merge, shuffle read) and GC do the work. Batch: op_p50_ms = op_tail_ms = round_ms"},
	{"tune-sweep", "Tuner.RunComparison on tiny sql at up to 900x900 partitions: per-block shuffle metadata and per-task overhead, not data. Batch: op_p50_ms = op_tail_ms = round_ms"},
	{"serve-read", "500 recommends per round, 2 closed-loop keep-alive clients, daemon on a durable trained store: no engine at all; clone+refit+optimise+net/http. op_tail_ms is the round p95"},
	{"fleet-write", "1 client via router: 6x(recorded sql submit + 5 recommends), fsynced primary, pulling replica: writes beside reads. op = one submit; op_tail_ms = op_p50_ms"},
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them on an untraced run.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms", "ms", "lower", 0.25},
	{"round_cpu_ms", "ms", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.02},
	{"mallocs_k_per_round", "1e3", "lower", 0.02},
}

// perLayer lists the traced run's metrics: layer probes (internal/layers),
// the traced section's runtime figures, and the machine's own noise.
var perLayer = []Metric{
	{"rdd.partition_int_ns_row", "ns", "lower", 0},
	{"rdd.partition_str_ns_row", "ns", "lower", 0},
	{"rdd.partition_nocombine_ns_row", "ns", "lower", 0},
	{"rdd.merge_int_ns_row", "ns", "lower", 0},
	{"rdd.merge_any_ns_row", "ns", "lower", 0},
	{"rdd.partition_alloc_b_row", "B", "lower", 0},
	{"rdd.merge_alloc_b_row", "B", "lower", 0},
	{"shuffle.put_us_map", "us", "lower", 0},
	{"shuffle.reduce_view_us_r300", "us", "lower", 0},
	{"shuffle.reduce_view_us_r900", "us", "lower", 0},
	{"shuffle.node_bytes_us_r300", "us", "lower", 0},
	{"shuffle.node_bytes_us_r900", "us", "lower", 0},
	{"shuffle.best_node_us_r900", "us", "lower", 0},
	{"shuffle.retire_us", "us", "lower", 0},
	{"dag.build_plan_us.sql", "us", "lower", 0},
	{"dag.build_plan_us.kmeans", "us", "lower", 0},
	{"exec.job_ms.kmeans", "ms", "lower", 0},
	{"exec.job_ms.pca", "ms", "lower", 0},
	{"exec.job_ms.sql", "ms", "lower", 0},
	{"exec.job_ms.pagerank", "ms", "lower", 0},
	{"exec.job_ms.sql_p150", "ms", "lower", 0},
	{"exec.job_ms.sql_p900", "ms", "lower", 0},
	{"exec.job_alloc_mb.kmeans", "MB", "lower", 0},
	{"exec.job_alloc_mb.pca", "MB", "lower", 0},
	{"exec.job_alloc_mb.sql", "MB", "lower", 0},
	{"exec.job_alloc_mb.pagerank", "MB", "lower", 0},
	{"exec.sim_s.kmeans", "s", "lower", 0},
	{"exec.sim_s.pca", "s", "lower", 0},
	{"exec.sim_s.sql", "s", "lower", 0},
	{"exec.sim_s.pagerank", "s", "lower", 0},
	{"simclock.event_ns", "ns", "lower", 0},
	{"model.fit_stage_us", "us", "lower", 0},
	{"model.minimize_us", "us", "lower", 0},
	{"core.clone_us", "us", "lower", 0},
	{"core.generate_config_us.sql", "us", "lower", 0},
	{"core.generate_config_us.kmeans", "us", "lower", 0},
	{"core.generate_config_us.runs400", "us", "lower", 0},
	{"core.add_run_us", "us", "lower", 0},
	{"core.append_us_nosync", "us", "lower", 0},
	{"core.append_us_sync", "us", "lower", 0},
	{"core.fsync_us", "us", "lower", 0},
	{"core.journal_b_per_run", "B", "lower", 0},
	{"core.snapshot_ms", "ms", "lower", 0},
	{"core.open_replay_ms", "ms", "lower", 0},
	{"core.read_segment_us_64k", "us", "lower", 0},
	{"core.append_raw_us_64k", "us", "lower", 0},
	{"core.tuned_gain_pct.sql", "%", "higher", 0},
	{"core.tuned_gain_pct.kmeans", "%", "higher", 0},
	{"config.write_parse_us", "us", "lower", 0},
	{"service.recommend_handler_us", "us", "lower", 0},
	{"service.explain_handler_us", "us", "lower", 0},
	{"service.submit_handler_ms", "ms", "lower", 0},
	{"service.self_us", "us", "lower", 0},
	{"service.metrics_scrape_us", "us", "lower", 0},
	{"client.recommend_rtt_us", "us", "lower", 0},
	{"client.http_overhead_us", "us", "lower", 0},
	{"fleet.router_hop_us", "us", "lower", 0},
	{"fleet.shardfor_ns", "ns", "lower", 0},
	{"fleet.repl_catchup_ms", "ms", "lower", 0},
	{"fleet.repl_lag_b_max", "B", "lower", 0},
	{"fleet.read_after_write_p50_us", "us", "lower", 0},
	{"chopper.profile_run_ms", "ms", "lower", 0},
	{"chopper.train_ms.sql", "ms", "lower", 0},
	{"metrics.observe_ns", "ns", "lower", 0},
	{"gc.cycles_per_round", "count", "lower", 0},
	{"gc.pause_ms_per_round", "ms", "lower", 0},
	{"heap.inuse_mb", "MB", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
	{"env.steal_pct", "%", "lower", 0},
	{"env.spin_ms_before", "ms", "lower", 0},
	{"env.spin_ms_after", "ms", "lower", 0},
	{"env.rounds", "count", "higher", 0},
	{"env.box_extended_s", "s", "lower", 0},
	{"env.round_ms_p50", "ms", "lower", 0},
	{"env.round_ms_p90", "ms", "lower", 0},
	{"env.fixture_s", "s", "lower", 0},
	{"env.trace_overhead_pct", "%", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: the time box of one run.
const runSeconds = 10

// specJSON renders BENCHMARK.json from the tables above, the single place
// names, units and bounds are written down.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// metricsJSON builds the "metrics" object of the result line: every listed
// metric exactly once with its unit. A listed metric without a value, a
// value that is not a finite number, or a value nobody listed is an error.
func metricsJSON(listed []Metric, values map[string]float64) (map[string]map[string]any, error) {
	out := make(map[string]map[string]any, len(listed))
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no value", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics emitted: %v", extra)
	}
	return out, nil
}
