package workload

import (
	"fmt"
	"math"

	"repro/internal/arrival"
)

// CityProfile selects how a CityScenario distributes the city-wide
// offered load across its neighbourhood shards.
type CityProfile string

const (
	// CityUniform spreads the total arrival rate evenly: every shard
	// receives TotalRate / Shards() as a homogeneous Poisson stream.
	CityUniform CityProfile = "uniform"
	// CityHotspot skews the load toward the grid centre: shard weights
	// fall off exponentially with Manhattan distance from the centre
	// cell (weight 1 + (HotspotBoost-1) * 2^-d), then normalize so the
	// city-wide mean rate stays exactly TotalRate. HotspotBoost 1
	// degenerates to uniform.
	CityHotspot CityProfile = "hotspot"
	// CityDiurnal gives every shard an equal mean share of TotalRate
	// but modulates it sinusoidally (600 s period, amplitude 0.9) with a
	// per-shard phase shift of shard/Shards() of a period —
	// neighbourhoods peak at different times of day, so the
	// instantaneous city load stays near its mean while each shard
	// cycles through feast and famine.
	CityDiurnal CityProfile = "diurnal"
)

// CityScenario lays out a city as a Rows x Cols grid of independent
// single-hop neighbourhoods ("shards"). Every shard is a standard
// spontaneous neighbourhood — NodesPerShard devices drawn from DefaultMix
// in an 80 m square — and the grid pitch is assumed to exceed the radio
// range, so shards never interact over the air; each shard gets its own
// cluster, medium and virtual clock, which is what lets the fabric
// engine run them on parallel workers without changing a single bit of
// the results. The scenario's job is load shaping: it calibrates
// per-shard arrival processes so their mean rates sum to exactly
// TotalRate whatever the Profile, following the equal-load calibration
// the inhomogeneous-arrival experiments (E18) established.
type CityScenario struct {
	// Rows, Cols define the shard grid; Shards() = Rows*Cols.
	Rows, Cols int
	// NodesPerShard is each neighbourhood's population (default 16).
	NodesPerShard int
	// TotalRate is the city-wide mean session arrival rate
	// (sessions per simulated second), split across shards by Profile.
	TotalRate float64
	// Profile picks the load-shaping scheme (default CityUniform).
	Profile CityProfile
	// HotspotBoost is the centre-to-edge weight ratio knob of
	// CityHotspot (values <= 1 mean uniform).
	HotspotBoost float64
}

// CityDiurnal's sinusoid: relative amplitude and period in seconds.
const (
	cityDiurnalAmplitude = 0.9
	cityDiurnalPeriod    = 600
)

// Validate reports the first configuration error.
func (c CityScenario) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("workload: city grid needs positive Rows x Cols, got %dx%d", c.Rows, c.Cols)
	}
	if c.TotalRate <= 0 {
		return fmt.Errorf("workload: city total arrival rate must be positive, got %g", c.TotalRate)
	}
	switch c.Profile {
	case "", CityUniform, CityHotspot, CityDiurnal:
	default:
		return fmt.Errorf("workload: unknown city profile %q", c.Profile)
	}
	return nil
}

// Shards returns the number of neighbourhood shards in the grid.
func (c CityScenario) Shards() int { return c.Rows * c.Cols }

// Pos returns the grid position of a shard (row-major order).
func (c CityScenario) Pos(shard int) (row, col int) {
	return shard / c.Cols, shard % c.Cols
}

// weight is the unnormalized load share of one shard.
func (c CityScenario) weight(shard int) float64 {
	if c.Profile != CityHotspot || c.HotspotBoost <= 1 {
		return 1
	}
	row, col := c.Pos(shard)
	// Manhattan distance from the (possibly fractional) grid centre.
	d := math.Abs(float64(row)-float64(c.Rows-1)/2) +
		math.Abs(float64(col)-float64(c.Cols-1)/2)
	return 1 + (c.HotspotBoost-1)*math.Pow(2, -d)
}

// ShardRate returns the calibrated mean arrival rate of one shard. The
// rates sum to TotalRate across the grid for every profile: skew and
// modulation redistribute the load, they never add to it.
func (c CityScenario) ShardRate(shard int) float64 {
	var sum float64
	for i := 0; i < c.Shards(); i++ {
		sum += c.weight(i)
	}
	return c.TotalRate * c.weight(shard) / sum
}

// ArrivalProcess builds a fresh arrival process for one shard. Each
// call returns a new instance, so stateful processes are never shared
// between shards (or between replications of the same shard).
func (c CityScenario) ArrivalProcess(shard int) arrival.Process {
	rate := c.ShardRate(shard)
	if c.Profile != CityDiurnal {
		return arrival.Poisson{Rate: rate}
	}
	phase := cityDiurnalPeriod * float64(shard) / float64(c.Shards())
	return arrival.Inhomogeneous{Profile: arrival.Diurnal{
		Mean: rate, Amplitude: cityDiurnalAmplitude, Period: cityDiurnalPeriod, Phase: phase,
	}}
}

// ScenarioConfig derives the shard's neighbourhood configuration from
// the city parameters and the shard's private seed.
func (c CityScenario) ScenarioConfig(seed int64) ScenarioConfig {
	scfg := DefaultScenario(seed)
	if c.NodesPerShard > 0 {
		scfg.Nodes = c.NodesPerShard
	}
	return scfg
}
