package main

import "fmt"

// metricDef declares one metric the benchmark reports. BENCHMARK.json
// repeats this table (TestBenchmarkJSONMatchesTables keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the figures a user of the system sees. Two of the issue's
// candidates are not among them. failed_share is never anything but 0 on
// these fault-free workloads: the result line carries attempted and
// failed, and a run with a single failure aborts instead of reporting.
// cpu_us_per_commit moves by 15-28% between processes on the round-trip
// bound workloads, where most of the CPU is the Go runtime looking for
// work, so no bound the contract allows could hold it; it is reported
// per layer as process.cpu_us_per_commit.
//
// The bounds are wide because the machine is: on the _lan workloads a
// process lives in one of two wake-up regimes about 10% apart (see the
// README), which puts 10-13% between the quartiles of ten runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "1/s", "higher", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commit_p99_us", "us", "lower", 0.25},
	{"restart_p50_ms", "ms", "lower", 0.25},
}

// notApplicable is the value of a per-layer metric that the workload
// cannot produce (the table prints it as n/a): a K > 1 engine bypasses
// the recman.Log seam.
const notApplicable = -1

var perLayer = []metricDef{
	{name: "recman.update_us_p50", unit: "us", better: "lower"},
	{name: "recman.commit_us_p50", unit: "us", better: "lower"},
	{name: "recman.commit_us_p99", unit: "us", better: "lower"},
	{name: "recman.self_us_per_commit", unit: "us", better: "lower"},
	{name: "recman.records_per_commit", unit: "count", better: "lower"},
	{name: "recman.log_bytes_per_commit", unit: "B", better: "lower"},
	{name: "recman.recover_ms_p50", unit: "ms", better: "lower"},
	{name: "recman.apply_ms_p50", unit: "ms", better: "lower"},

	{name: "core.writelog_us_p50", unit: "us", better: "lower"},
	{name: "core.writelog_us_p99", unit: "us", better: "lower"},
	{name: "core.force_us_p50", unit: "us", better: "lower"},
	{name: "core.force_us_p99", unit: "us", better: "lower"},
	{name: "core.self_us_per_commit", unit: "us", better: "lower"},
	{name: "core.force_rounds_per_commit", unit: "count", better: "lower"},
	{name: "core.group_commit_share", unit: "share", better: "higher"},
	{name: "core.stream_frames_per_commit", unit: "count", better: "lower"},
	{name: "core.resends_per_kcommit", unit: "count", better: "lower"},
	{name: "core.stream_timeouts", unit: "count", better: "lower"},
	{name: "core.stream_backoffs", unit: "count", better: "lower"},
	{name: "core.open_ms_p50", unit: "ms", better: "lower"},
	{name: "core.open_stalled_share", unit: "share", better: "lower"},
	{name: "core.cursor_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "core.prefetch_hit_share", unit: "share", better: "higher"},
	{name: "core.cursor_streams_per_restart", unit: "count", better: "lower"},

	{name: "wire.packets_per_commit", unit: "count", better: "lower"},
	{name: "wire.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wire.records_per_frame", unit: "count", better: "higher"},
	{name: "wire.acks_per_commit", unit: "count", better: "lower"},
	{name: "wire.packets_per_restart", unit: "count", better: "lower"},
	{name: "wire.encode_ns_per_frame", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_frame", unit: "ns", better: "lower"},

	{name: "transport.send_us_p50", unit: "us", better: "lower"},
	{name: "transport.oneway_us_p50", unit: "us", better: "lower"},
	{name: "transport.oneway_us_p99", unit: "us", better: "lower"},
	{name: "transport.unmatched_sends", unit: "count", better: "lower"},
	{name: "transport.path_us_per_commit", unit: "us", better: "lower"},

	{name: "server.force_dwell_us_p50", unit: "us", better: "lower"},
	{name: "server.force_dwell_us_p99", unit: "us", better: "lower"},
	{name: "server.self_us_per_force", unit: "us", better: "lower"},
	{name: "server.self_us_per_commit", unit: "us", better: "lower"},
	{name: "server.forces_coalesced_share", unit: "share", better: "higher"},
	{name: "server.force_rounds_per_commit", unit: "count", better: "lower"},
	{name: "server.queue_sheds", unit: "count", better: "lower"},
	{name: "server.busy_sent", unit: "count", better: "lower"},
	{name: "server.read_dwell_us_p50", unit: "us", better: "lower"},
	{name: "server.stream_packets_per_restart", unit: "count", better: "lower"},
	{name: "server.msgs_per_server_per_s", unit: "1/s", better: "lower"},

	{name: "storage.append_us_p50", unit: "us", better: "lower"},
	{name: "storage.force_us_p50", unit: "us", better: "lower"},
	{name: "storage.force_us_p99", unit: "us", better: "lower"},
	{name: "storage.appends_per_commit", unit: "count", better: "lower"},
	{name: "storage.forces_per_commit", unit: "count", better: "lower"},
	{name: "storage.force_busy_share", unit: "share", better: "lower"},
	{name: "storage.path_us_per_commit", unit: "us", better: "lower"},
	{name: "storage.read_us_p50", unit: "us", better: "lower"},
	{name: "storage.reads_per_restart", unit: "count", better: "lower"},
	{name: "storage.appended_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "storage.live_bytes_per_user_byte", unit: "ratio", better: "lower"},

	{name: "retention.segments_reclaimed", unit: "count", better: "higher"},
	{name: "retention.units_retired", unit: "count", better: "higher"},
	{name: "retention.passes_deferred", unit: "count", better: "lower"},
	{name: "retention.archived_bytes", unit: "B", better: "lower"},

	{name: "process.cpu_us_per_commit", unit: "us", better: "lower"},
	{name: "process.allocs_per_commit", unit: "count", better: "lower"},
	{name: "process.alloc_bytes_per_commit", unit: "B", better: "lower"},

	{name: "capacity.predicted_packets_per_commit", unit: "count", better: "lower"},
	{name: "capacity.predicted_msgs_per_server_per_s", unit: "1/s", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.path_gap_pct", unit: "%", better: "lower"},
}

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map of a result from measured values, in the
// order and with the units of defs; a metric nobody measured is a bug.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
