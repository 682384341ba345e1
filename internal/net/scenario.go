package net

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/task"
	"repro/internal/workload"
)

// This file pins the interop scenario shared by the qosnoded daemon,
// qosim's client mode, and experiments E10 and E28: a fixed grid of
// profiled nodes that can be instantiated identically on the
// discrete-event simulator and the TCP fabric, so allocations are
// comparable across runtimes.

// InteropSpacing is the grid pitch of the interop topology, meters.
const InteropSpacing = 10.0

// InteropProcDelay is the per-hop processing delay of the interop
// communication-cost model, seconds.
const InteropProcDelay = 0.001

// InteropProfile returns the device profile of node i in the interop
// topology: a phone/PDA/laptop rotation, repeated for larger
// populations.
func InteropProfile(i int) workload.Profile {
	rot := []workload.Profile{
		workload.Phone, workload.PDA, workload.Laptop,
		workload.PDA, workload.Laptop, workload.Phone,
	}
	return rot[i%len(rot)]
}

// InteropService is the service every interop runtime negotiates.
func InteropService(tasks int, scale float64) *task.Service {
	return workload.StreamService("interop", tasks, scale)
}

// InteropEndpointConfig places node id on the interop grid and returns
// its endpoint configuration. listen may be empty for a dial-only node.
func InteropEndpointConfig(id radio.NodeID, total int, listen string, timeScale float64) Config {
	p := InteropProfile(int(id))
	pos := core.GridPlacement(int(id), total, InteropSpacing)
	return Config{
		Self:       id,
		ListenAddr: listen,
		Link:       radio.Link{Pos: radio.Pos(pos), RangeM: p.RangeM, Bitrate: p.Bitrate},
		Capacity:   p.Capacity,
		TimeScale:  timeScale,
		ProcDelay:  InteropProcDelay,
	}
}

// InteropSim runs the interop scenario through the discrete-event
// simulator and returns the first formation result — the reference a
// TCP-fabric run of the same topology is compared against.
func InteropSim(seed int64, total, tasks int, scale float64) (*core.Result, error) {
	cl := core.NewCluster(seed, radio.Config{ProcDelay: InteropProcDelay}, core.DefaultProviderConfig)
	for i := 0; i < total; i++ {
		p := InteropProfile(i)
		if _, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, total, InteropSpacing))); err != nil {
			return nil, err
		}
	}
	var res *core.Result
	if _, err := cl.Submit(0, 0, InteropService(tasks, scale), core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	}); err != nil {
		return nil, err
	}
	cl.Run(5)
	if res == nil {
		return nil, errors.New("net: interop sim formation incomplete")
	}
	return res, nil
}

// SameAssignment reports whether two formation results allocated every
// task to the same node at the same QoS distance (within float noise) —
// the cross-runtime equality criterion of experiments E10 and E28.
func SameAssignment(a, b *core.Result) bool {
	if len(a.Assigned) != len(b.Assigned) {
		return false
	}
	for tid, aa := range a.Assigned {
		ba, ok := b.Assigned[tid]
		if !ok || ba.Node != aa.Node {
			return false
		}
		if math.Abs(ba.Distance-aa.Distance) > 1e-9 {
			return false
		}
	}
	return true
}
