package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
)

// ScenarioConfig parameterizes a generated ad-hoc neighbourhood.
type ScenarioConfig struct {
	Seed int64
	// Nodes is the population size.
	Nodes int
	// AreaM is the square side in meters; nodes are placed uniformly.
	// Keep it at or below the typical radio range to model the paper's
	// single-hop spontaneous neighbourhood.
	AreaM float64
	// Mix selects device classes (nil = DefaultMix).
	Mix Mix
	// Mobile makes nodes wander between random waypoints; static
	// otherwise.
	Mobile bool
	// MobileSpeed is the waypoint speed in m/s (default 1.2, a
	// pedestrian walk).
	MobileSpeed float64
	// Radio configures the medium.
	Radio radio.Config
	// Provider configures every node's QoS Provider.
	Provider core.ProviderConfig
	// Retry enables the at-least-once reliability layer (sequence
	// envelopes, bounded retransmission, receiver dedup) on every node.
	// The zero value keeps the historical bare transport.
	Retry proto.RetryConfig
}

// DefaultScenario returns the baseline configuration used by the
// experiments: 16 nodes in an 80 m square (everyone in range of
// everyone), default mix, static, lossless radio.
func DefaultScenario(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Seed:     seed,
		Nodes:    16,
		AreaM:    80,
		Mix:      DefaultMix,
		Provider: core.DefaultProviderConfig,
	}
}

// Scenario is a generated cluster plus its bookkeeping.
type Scenario struct {
	Cluster  *core.Cluster
	Profiles map[radio.NodeID]Profile
	Rng      *rand.Rand
}

// Build materializes the configuration into a ready-to-run cluster.
// Node 0 is always the weakest profile in the mix: the experiments model
// the paper's scenario of a constrained device requesting help from its
// neighbourhood, so the organizer node is a phone-class device.
func Build(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("workload: scenario needs at least one node")
	}
	if cfg.AreaM <= 0 {
		cfg.AreaM = 80
	}
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix
	}
	cl := core.NewCluster(cfg.Seed, cfg.Radio, cfg.Provider)
	if cfg.Retry.Enabled() {
		if err := cl.SetRetry(cfg.Retry); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5e3779b97f4a7c15))
	sc := &Scenario{Cluster: cl, Profiles: make(map[radio.NodeID]Profile), Rng: rng}

	weakest := mix[0].Profile
	for _, wp := range mix[1:] {
		if wp.Profile.Capacity[0] < weakest.Capacity[0] {
			weakest = wp.Profile
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := radio.NodeID(i)
		p := mix.Sample(rng)
		if i == 0 {
			p = weakest
		}
		mob, err := placement(cfg, rng)
		if err != nil {
			return nil, err
		}
		if _, err := cl.AddNode(NodeSpecFor(id, p, mob)); err != nil {
			return nil, err
		}
		sc.Profiles[id] = p
	}
	return sc, nil
}

func placement(cfg ScenarioConfig, rng *rand.Rand) (radio.Mobility, error) {
	pt := func() radio.Pos {
		return radio.Pos{X: rng.Float64() * cfg.AreaM, Y: rng.Float64() * cfg.AreaM}
	}
	if !cfg.Mobile {
		return radio.Static(pt()), nil
	}
	points := make([]radio.Pos, 6)
	for i := range points {
		points[i] = pt()
	}
	speed := cfg.MobileSpeed
	if speed <= 0 {
		speed = 1.2 // pedestrian walk
	}
	return radio.NewWaypoint(speed, 2.0, points...)
}
