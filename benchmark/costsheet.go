package main

import (
	"fmt"
	"time"
)

// costLine is one row of the cost sheet: how often a layer ran per op,
// what one run costs by its probe, and the product.
type costLine struct {
	Layer    string  `json:"layer"`
	PerOp    float64 `json:"per_op"`
	UnitNS   float64 `json:"unit_ns"`
	UnitFrom string  `json:"unit_from"`
	US       float64 `json:"us_per_op"`
	Share    float64 `json:"share_of_cpu"`
}

// perLayerValues assembles the traced run's metrics: counts read off
// the traced segment, probe timings, the saturation phase, the tracing
// overhead against the untraced reference segment, and the cost sheet.
func (m *measured) perLayerValues(seed int64, sz sizes, rep *report) (values, error) {
	seg, ref := m.seg, m.ref
	probeTime := time.Duration(sz.seconds * traceProbeShare * float64(time.Second))
	satSeconds := sz.seconds * traceSatShare
	if sz.smoke {
		probeTime, satSeconds = 400*time.Millisecond, 0.2
	}
	v, n, err := runProbes(seed, probeTime)
	if err != nil {
		return nil, err
	}
	for k, c := range n {
		rep.Samples[k] = c
	}
	sat, err := saturation(seed, satSeconds)
	if err != nil {
		return nil, fmt.Errorf("saturation phase: %w", err)
	}
	for k, x := range sat {
		v[k] = x
	}

	ops := float64(seg.ops)
	v["trace_overhead_share"] = traceOverhead(ref, seg)
	v["core.cfps_per_op"] = float64(seg.cfps) / ops
	v["core.proposals_per_op"] = float64(seg.proposals) / ops
	v["core.rounds_per_op"] = float64(seg.rounds) / ops
	v["core.declines_per_op"] = float64(seg.declines) / ops
	v["sim.events_per_op"] = float64(seg.simEvents) / ops
	v["sim.events_per_s"] = float64(seg.simEvents) / seg.wall.Seconds()
	v["radio.deliveries_per_op"] = 0
	v["radio.bytes_per_op"] = float64(seg.bytes) / ops
	v["radio.fault_drops_per_op"] = float64(seg.faultDrops) / ops
	v["proto.retx_per_op"] = float64(seg.retx) / ops
	v["proto.dup_share"] = 0
	if seg.deliveries > 0 {
		v["proto.dup_share"] = float64(seg.dups) / float64(seg.deliveries)
	}
	v["net.frames_sent_per_op"] = float64(seg.framesSent) / ops
	v["net.frames_delivered_per_op"] = float64(seg.framesDelivered) / ops
	v["net.overflows"] = float64(seg.overflows)
	v["net.send_errors"] = float64(seg.sendErrors)
	v["session.us_per_simsec"] = 0
	v["session.live_avg"] = seg.liveAvg
	v["session.peak_live"] = float64(seg.peakLive)
	v["adapt.degrades_per_op"] = float64(seg.degrades) / ops
	v["adapt.repairs_per_op"] = float64(seg.repairs) / ops
	v["admit.yield_steps_per_op"] = float64(seg.yieldSteps) / ops

	// The untraced reference segment prices an op; the traced segment's
	// counts are the same ones it would have produced (they are exact).
	cpuUS := float64(ref.cpu) / 1e3 / float64(ref.ops)
	var sheet []costLine
	line := func(layer string, perOp, unitNS float64, from string) {
		if perOp <= 0 {
			return
		}
		us := perOp * unitNS / 1e3
		sheet = append(sheet, costLine{Layer: layer, PerOp: perOp, UnitNS: unitNS, UnitFrom: from, US: us, Share: us / cpuUS})
	}
	organizer := func() {
		line("core.organizer: proposal evaluated", v["core.proposals_per_op"], v["core.organizer_proposal_ns"], "core.organizer_proposal_ns")
		line("core.organizer: round opened, closed, acked", v["core.rounds_per_op"],
			v["core.organizer_round_ns"]-organizerProbeProposals*v["core.organizer_proposal_ns"], "core.organizer_round_ns less its 16 proposals")
	}
	if seg.simSeconds > 0 {
		deliveries := float64(seg.deliveries) / ops
		v["radio.deliveries_per_op"] = deliveries
		v["session.us_per_simsec"] = float64(ref.wall) / 1e3 / ref.simSeconds
		simsec := seg.simSeconds / ops
		reps := float64(len(seg.repOpsPerS))
		line("core.provider: CFP handled", v["core.cfps_per_op"], v["core.provider_oncfp_sim_ns"], "core.provider_oncfp_sim_ns")
		line("core.provider: task awarded", float64(seg.accepts)/ops, v["core.provider_award_ns"], "core.provider_award_ns")
		organizer()
		line("radio: delivery and its event", deliveries, v["radio.unicast_ns"], "radio.unicast_ns")
		line("sim: every other event", v["sim.events_per_op"]-deliveries, v["sim.event_ns"], "sim.event_ns")
		line("session: sampling tick", simsec*float64(seg.nodes)/16, v["session.idle_us_per_simsec"]*1e3, "session.idle_us_per_simsec x nodes/16")
		line("workload: instantiate, draw arrival", 1, v["workload.instantiate_ns"]+v["arrival.next_ns"], "workload.instantiate_ns + arrival.next_ns")
		line("workload: build neighbourhood", reps/ops*float64(seg.nodes)/16, v["workload.build_ns"], "workload.build_ns x nodes/16")
		if seg.retx+seg.dups > 0 {
			line("proto: dedup window", deliveries, v["proto.dedup_ns"], "proto.dedup_ns")
		}
		if seg.faultDrops > 0 {
			line("faults: delivery fate", deliveries+v["radio.fault_drops_per_op"], v["faults.intercept_ns"], "faults.intercept_ns")
		}
		if seg.degrades+seg.repairs > 0 {
			line("adapt: pressure tick", simsec, v["adapt.tick_ns"], "adapt.tick_ns")
			line("adapt: epoch scan", simsec/10, v["adapt.epoch_scan_ns"], "adapt.epoch_scan_ns")
			line("admit: yield pricing", float64(seg.yieldAttempts)/ops, v["admit.yield_ns"], "admit.yield_ns")
		}
	} else {
		// tcp-fleet: a frame's one-way cost (encode, write, read, decode,
		// inbox) is read off the bare-endpoint round trip. Rough by design:
		// the probes run uncontended, the fleet does not.
		frames := float64(seg.deliveries) / ops
		line("net: frame, one way", frames, v["net.rtt_us"]*1e3/2, "net.rtt_us / 2")
		line("proto: dedup window", frames, v["proto.dedup_ns"], "proto.dedup_ns")
		line("core.provider: CFP handled", v["core.cfps_per_op"], v["core.provider_oncfp_ns"], "core.provider_oncfp_ns")
		line("core.provider: task awarded", float64(seg.accepts)/ops, v["core.provider_award_ns"], "core.provider_award_ns")
		organizer()
		line("workload: instantiate", 1, v["workload.instantiate_ns"], "workload.instantiate_ns")
	}
	explained := 0.0
	for _, l := range sheet {
		explained += l.Share
	}
	v["costsheet.explained_share"] = explained
	sheet = append(sheet, costLine{Layer: "unexplained remainder", US: cpuUS * (1 - explained), Share: 1 - explained,
		UnitFrom: fmt.Sprintf("cpu_us_per_op %.1f of the untraced reference segment", cpuUS)})
	rep.CostSheet = sheet
	return v, nil
}

// traceOverhead is the share of throughput tracing cost. On sim-* the
// two segments ran the same replications in alternation, so the ops
// cancel and only the host time differs.
func traceOverhead(ref, traced *segment) float64 { return 1 - traced.opsPerS/ref.opsPerS }
