package main

import "sort"

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions, plus the regression
// bound of each end-to-end metric; metrics_test.go keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func lower(name, unit string) metricDef  { return metricDef{name, unit, "lower"} }
func higher(name, unit string) metricDef { return metricDef{name, unit, "higher"} }

// endToEnd are the numbers a user of the system sees, measured with
// tracing off. Every workload reports all of them; README.md defines
// each one per workload.
var endToEnd = []metricDef{
	lower("setup_s", "s"),
	higher("ops_per_s", "1/s"),
	lower("cpu_us_per_op", "us"),
	lower("allocs_per_op", "count"),
	higher("served_share", "ratio"),
	lower("op_p50_ms", "ms"),
	lower("op_p99_ms", "ms"),
	lower("max_rss_mb", "MiB"),
}

// protoKinds are the message kinds the workloads put on the wire.
var protoKinds = []string{"cfp", "proposal", "award", "award-ack", "task-data",
	"task-release", "heartbeat", "dissolve", "catalog", "hello"}

// perLayer are the single-layer numbers of the traced run, named
// <package>.<metric>. Probe timings (ns, us, allocs) come from fixed
// inputs; the *_per_op counts, shares and session.* figures come from
// the workload itself.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		lower("trace_overhead_share", "ratio"),
		higher("costsheet.explained_share", "ratio"),

		lower("qos.distance_ns", "ns"),
		lower("qos.distance_compiled_ns", "ns"),
		lower("qos.build_ladder_ns", "ns"),
		lower("qos.build_ladder_allocs", "count"),

		lower("core.compile_problem_ns", "ns"),
		lower("core.formulate_ns", "ns"),
		lower("core.formulate_allocs", "count"),
		lower("core.select_winners_ns", "ns"),
		lower("core.select_winners_allocs", "count"),
		lower("core.provider_oncfp_ns", "ns"),
		lower("core.provider_oncfp_allocs", "count"),
		lower("core.provider_oncfp_sim_ns", "ns"),
		lower("core.provider_award_ns", "ns"),
		lower("core.organizer_proposal_ns", "ns"),
		lower("core.organizer_round_ns", "ns"),
		lower("core.organizer_round_allocs", "count"),
		lower("core.cfps_per_op", "count"),
		lower("core.proposals_per_op", "count"),
		lower("core.rounds_per_op", "count"),
		lower("core.declines_per_op", "count"),

		lower("resource.reserve_release_ns", "ns"),
		lower("resource.available_ns", "ns"),
		lower("resource.resize_ns", "ns"),

		lower("sim.event_ns", "ns"),
		lower("sim.events_per_op", "count"),
		higher("sim.events_per_s", "1/s"),

		lower("radio.unicast_ns", "ns"),
		lower("radio.broadcast16_ns", "ns"),
		lower("radio.broadcast16_allocs", "count"),
		lower("radio.deliveries_per_op", "count"),
		lower("radio.bytes_per_op", "count"),
		lower("radio.fault_drops_per_op", "count"),

		lower("proto.reliable_send_ns", "ns"),
		lower("proto.dedup_ns", "ns"),
		lower("proto.retx_per_op", "count"),
		lower("proto.dup_share", "ratio"),

		lower("net.dial_us", "us"),
		lower("net.rtt_us", "us"),
		lower("net.broadcast5_us", "us"),
		lower("net.frames_sent_per_op", "count"),
		lower("net.frames_delivered_per_op", "count"),
		lower("net.overflows", "count"),
		lower("net.send_errors", "count"),
		lower("net.timer_slip_p99_us", "us"),
		lower("net.catalog_push_us", "us"),
		higher("net.sat_ops_per_s", "1/s"),
		lower("net.sat_op_p99_ms", "ms"),
		lower("net.sat_failed_share", "ratio"),
		lower("net.sat_cpu_us_per_op", "us"),

		lower("session.idle_us_per_simsec", "us"),
		lower("session.us_per_simsec", "us"),
		lower("session.live_avg", "count"),
		lower("session.peak_live", "count"),

		lower("adapt.tick_ns", "ns"),
		lower("adapt.epoch_scan_ns", "ns"),
		lower("adapt.degrades_per_op", "count"),
		lower("adapt.repairs_per_op", "count"),
		lower("admit.yield_ns", "ns"),
		lower("admit.yield_steps_per_op", "count"),

		lower("arrival.next_ns", "ns"),
		lower("workload.instantiate_ns", "ns"),
		lower("workload.build_ns", "ns"),
		lower("faults.intercept_ns", "ns"),
		lower("trace.recorder_nil_ns", "ns"),
		lower("obs.snapshot_ns", "ns"),
		lower("fabric.merge_ns", "ns"),
		higher("fabric.par2_speedup", "ratio"),
	}
	for _, k := range protoKinds {
		defs = append(defs,
			lower("proto.encode_ns."+k, "ns"),
			lower("proto.decode_ns."+k, "ns"),
			lower("proto.frame_bytes."+k, "count"),
			lower("proto.decode_allocs."+k, "count"),
		)
	}
	return defs
}

// metric is one reported value, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measured numbers by metric name before they are
// checked against a metricDef list and given their units.
type values map[string]float64

// shaped returns exactly the metrics defs names, with units, and the
// names that were never measured (a bug: every run reports every metric).
func (v values) shaped(defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	sort.Strings(missing)
	return out, missing
}
