package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric describes one reported metric. Bound is set on end-to-end metrics
// only (per-layer metrics have none, so it is omitted): the share of the
// parent's median by which the metric may worsen before a change counts as
// a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and the one-line reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the nominal measured time of one run on a 2-CPU box; the
// fixed work lists are sized from it (see units).
const runSeconds = 20

var workloads = []workloadSpec{
	{"build", "n=1024 exact cold Run of all four pipelines per seed: the user's main wait, sparse slots over the gain table, no far field"},
	{"build-far", "n=8192 eps=1 cold Init and RescheduleMean on a fixed instance: the only workload whose slots reach the quadtree far field"},
	{"churn", "n=1024 exact Network.Churn traces: incremental repair plus instance writes (MoveTo, Shrink) that the builds never do"},
	{"serve", "loadgen-style closed loop of 2 clients over loopback TCP, n=256: 1/4 cache misses (pipeline runs), 3/4 cache hits"},
}

// endToEnd are the metrics every untraced run reports, on every workload.
// An op is one seed's cold Runs (build, build-far), one churn event, or one
// HTTP request (serve).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"schedule_slots", "slots", "lower", 0.1},
	{"construction_slots", "slots", "lower", 0.1},
	{"latency_slots", "slots", "lower", 0.1},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
}

// perLayer are the metrics every traced run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metric{
	{"sinrconn.open_ms", "ms", "lower", 0},
	{"sinrconn.overhead_ms", "ms", "lower", 0},
	{"sinrconn.init_ms", "ms", "lower", 0},
	{"sinrconn.resched_ms", "ms", "lower", 0},
	{"sinrconn.tvc_mean_ms", "ms", "lower", 0},
	{"sinrconn.tvc_arb_ms", "ms", "lower", 0},
	{"sinr.gaintable_ms", "ms", "lower", 0},
	{"sinr.quadplan_ms", "ms", "lower", 0},
	{"sinr.far_slots", "count", "lower", 0},
	{"sim.slots", "count", "lower", 0},
	{"sim.senders_p50", "count", "lower", 0},
	{"sim.senders_p90", "count", "lower", 0},
	{"sim.senders_max", "count", "lower", 0},
	{"sim.slot_us_p50", "us", "lower", 0},
	{"sim.slot_us_p90", "us", "lower", 0},
	{"sim.busy_share", "ratio", "lower", 0},
	{"sim.decode_yield", "ratio", "higher", 0},
	{"core.init_ms", "ms", "lower", 0},
	{"core.reschedule_ms", "ms", "lower", 0},
	{"core.tvc_mean_ms", "ms", "lower", 0},
	{"core.tvc_arb_ms", "ms", "lower", 0},
	{"core.init_rounds", "count", "lower", 0},
	{"core.tvc_iterations", "count", "lower", 0},
	{"core.power_iterations", "count", "lower", 0},
	{"core.forced_selections", "count", "lower", 0},
	{"schedule.slot_pairs", "count", "lower", 0},
	{"tree.latency_ms", "ms", "lower", 0},
	{"tree.check_ms", "ms", "lower", 0},
	{"churn.event_ms", "ms", "lower", 0},
	{"churn.incremental", "count", "higher", 0},
	{"churn.restamps", "count", "lower", 0},
	{"churn.rebuilds", "count", "lower", 0},
	{"churn.retries", "count", "lower", 0},
	{"churn.damped_joins", "count", "lower", 0},
	{"churn.slots_per_event", "slots", "lower", 0},
	{"churn.gen_us", "us", "lower", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.coalesced", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"serve.hit_p50_ms", "ms", "lower", 0},
	{"serve.hit_p99_ms", "ms", "lower", 0},
	{"serve.miss_p50_ms", "ms", "lower", 0},
	{"serve.miss_p90_ms", "ms", "lower", 0},
	{"serve.rps", "1/s", "higher", 0},
	{"serve.hit_handler_us_p50", "us", "lower", 0},
	{"serve.miss_handler_ms_p50", "ms", "lower", 0},
	{"serve.transport_us_p50", "us", "lower", 0},
	{"serve.resp_bytes", "bytes", "lower", 0},
	{"serve.non200", "count", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"go.mallocs_per_op", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// benchmarkFile is the repository's BENCHMARK.json, generated from the
// tables above by `perfbench --emit-spec` so the two cannot drift (the smoke
// test compares them).
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

func specJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func emitSpec() error {
	b, err := specJSON()
	if err != nil {
		return fmt.Errorf("encode spec: %w", err)
	}
	_, err = os.Stdout.Write(b)
	return err
}
