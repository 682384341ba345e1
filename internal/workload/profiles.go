package workload

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/resource"
)

// Profile is a device class with calibrated capacities. Units: CPU in
// MIPS-like processing units, memory in MB, network bandwidth in kbit/s,
// energy in joule-like budget units, storage in MB.
type Profile struct {
	Name     string
	Capacity resource.Vector
	RangeM   float64 // radio range, meters
	Bitrate  float64 // link speed, bits per second
}

// The calibrated device classes. Relative capacities matter more than
// absolute numbers: a laptop has roughly an order of magnitude more CPU
// than a phone, matching the paper's motivation that weak devices offload
// "computationally intensive processing" to "nearby more powerful (or
// less congested) devices".
var (
	// Phone is a small mobile client: enough to decode audio, struggles
	// with video tasks at preferred quality.
	Phone = Profile{
		Name: "phone",
		Capacity: resource.V(
			resource.KV{K: resource.CPU, A: 150},
			resource.KV{K: resource.Memory, A: 64},
			resource.KV{K: resource.NetBW, A: 2000},
			resource.KV{K: resource.Energy, A: 400},
			resource.KV{K: resource.Storage, A: 128},
		),
		RangeM:  60,
		Bitrate: 2e6,
	}

	// PDA is a mid-range handheld.
	PDA = Profile{
		Name: "pda",
		Capacity: resource.V(
			resource.KV{K: resource.CPU, A: 400},
			resource.KV{K: resource.Memory, A: 128},
			resource.KV{K: resource.NetBW, A: 5000},
			resource.KV{K: resource.Energy, A: 900},
			resource.KV{K: resource.Storage, A: 512},
		),
		RangeM:  80,
		Bitrate: 5e6,
	}

	// Laptop is a strong battery-powered peer.
	Laptop = Profile{
		Name: "laptop",
		Capacity: resource.V(
			resource.KV{K: resource.CPU, A: 1600},
			resource.KV{K: resource.Memory, A: 1024},
			resource.KV{K: resource.NetBW, A: 11000},
			resource.KV{K: resource.Energy, A: 4000},
			resource.KV{K: resource.Storage, A: 4096},
		),
		RangeM:  100,
		Bitrate: 11e6,
	}

	// AccessPoint models the optional fixed infrastructure the paper
	// explicitly allows ("this model does not preclude the existence of
	// a fixed wired infrastructure collaborating with the wireless
	// nodes").
	AccessPoint = Profile{
		Name: "accesspoint",
		Capacity: resource.V(
			resource.KV{K: resource.CPU, A: 4000},
			resource.KV{K: resource.Memory, A: 4096},
			resource.KV{K: resource.NetBW, A: 54000},
			resource.KV{K: resource.Energy, A: 1e9}, // mains powered
			resource.KV{K: resource.Storage, A: 16384},
		),
		RangeM:  120,
		Bitrate: 54e6,
	}
)

// Mix is a categorical distribution over profiles.
type Mix []WeightedProfile

// WeightedProfile pairs a profile with a sampling weight.
type WeightedProfile struct {
	Profile Profile
	Weight  float64
}

// DefaultMix is the heterogeneous population used by most experiments:
// mostly phones and PDAs with some laptops, occasionally an access point.
var DefaultMix = Mix{
	{Profile: Phone, Weight: 0.40},
	{Profile: PDA, Weight: 0.30},
	{Profile: Laptop, Weight: 0.25},
	{Profile: AccessPoint, Weight: 0.05},
}

// ChurnMix is the churn-sensitive population of the churn and
// adaptation experiments (E19, E22-E24) and qosim's open mode: no
// access-point giant, so leave events have a real chance of hitting a
// serving coalition member.
var ChurnMix = Mix{
	{Profile: Phone, Weight: 0.40},
	{Profile: PDA, Weight: 0.35},
	{Profile: Laptop, Weight: 0.25},
}

// UniformMix gives every listed profile equal weight.
func UniformMix(ps ...Profile) Mix {
	m := make(Mix, len(ps))
	for i, p := range ps {
		m[i] = WeightedProfile{Profile: p, Weight: 1}
	}
	return m
}

// Sample draws a profile.
func (m Mix) Sample(rng *rand.Rand) Profile {
	var total float64
	for _, wp := range m {
		total += wp.Weight
	}
	x := rng.Float64() * total
	for _, wp := range m {
		x -= wp.Weight
		if x < 0 {
			return wp.Profile
		}
	}
	return m[len(m)-1].Profile
}

// NodeSpecFor instantiates a cluster NodeSpec from a profile at a
// position.
func NodeSpecFor(id radio.NodeID, p Profile, mob radio.Mobility) core.NodeSpec {
	return core.NodeSpec{
		ID: id, Mobility: mob,
		RangeM: p.RangeM, Bitrate: p.Bitrate,
		Capacity: p.Capacity, Profile: p.Name,
	}
}
