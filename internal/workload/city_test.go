package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arrival"
)

// TestCityRateCalibration: whatever the profile, per-shard mean rates
// must sum to exactly the city-wide TotalRate — skew redistributes
// load, it never adds to it.
func TestCityRateCalibration(t *testing.T) {
	cities := []CityScenario{
		{Rows: 2, Cols: 4, TotalRate: 0.8, Profile: CityUniform},
		{Rows: 3, Cols: 3, TotalRate: 0.45, Profile: CityHotspot, HotspotBoost: 8},
		{Rows: 1, Cols: 5, TotalRate: 0.25, Profile: CityDiurnal},
		{Rows: 4, Cols: 4, TotalRate: 1.6, Profile: CityHotspot, HotspotBoost: 2.5},
	}
	for _, c := range cities {
		var sum float64
		for s := 0; s < c.Shards(); s++ {
			sum += c.ShardRate(s)
		}
		if math.Abs(sum-c.TotalRate) > 1e-9 {
			t.Errorf("%s %dx%d: rates sum to %g, want %g", c.Profile, c.Rows, c.Cols, sum, c.TotalRate)
		}
	}
}

// TestCityHotspotShape: the centre shard carries the most load, weights
// fall off with distance, and boost 1 degenerates to uniform.
func TestCityHotspotShape(t *testing.T) {
	c := CityScenario{Rows: 3, Cols: 3, TotalRate: 0.9, Profile: CityHotspot, HotspotBoost: 8}
	centre := c.ShardRate(4)
	edge := c.ShardRate(1)
	corner := c.ShardRate(0)
	if !(centre > edge && edge > corner) {
		t.Fatalf("hotspot weights not monotone in distance: centre %g, edge %g, corner %g",
			centre, edge, corner)
	}
	flat := CityScenario{Rows: 3, Cols: 3, TotalRate: 0.9, Profile: CityHotspot, HotspotBoost: 1}
	for s := 0; s < flat.Shards(); s++ {
		if math.Abs(flat.ShardRate(s)-0.1) > 1e-12 {
			t.Fatalf("boost 1 shard %d rate %g, want uniform 0.1", s, flat.ShardRate(s))
		}
	}
}

// TestCityDiurnalPhases: every shard has an equal mean share but a
// distinct phase, so the per-shard instantaneous rates peak at
// different times while the long-run means stay calibrated.
func TestCityDiurnalPhases(t *testing.T) {
	c := CityScenario{Rows: 1, Cols: 4, TotalRate: 0.4, Profile: CityDiurnal}
	for s := 0; s < c.Shards(); s++ {
		p, ok := c.ArrivalProcess(s).(arrival.Inhomogeneous)
		if !ok {
			t.Fatalf("shard %d: diurnal city built %T, want Inhomogeneous", s, c.ArrivalProcess(s))
		}
		d := p.Profile.(arrival.Diurnal)
		if math.Abs(d.MeanRate()-0.1) > 1e-12 {
			t.Errorf("shard %d mean rate %g, want 0.1", s, d.MeanRate())
		}
		wantPhase := 600 * float64(s) / 4
		if d.Phase != wantPhase {
			t.Errorf("shard %d phase %g, want %g", s, d.Phase, wantPhase)
		}
	}
}

// TestCityArrivalProcessFresh: stateful arrival processes must never be
// shared — two calls for the same shard return distinct values that
// generate identical streams from identical rngs.
func TestCityArrivalProcessFresh(t *testing.T) {
	c := CityScenario{Rows: 2, Cols: 2, TotalRate: 0.4, Profile: CityDiurnal}
	a := c.ArrivalProcess(1)
	b := c.ArrivalProcess(1)
	ra := rand.New(rand.NewSource(5))
	rb := rand.New(rand.NewSource(5))
	for i, now := 0, 0.0; i < 50; i++ {
		ta, tb := a.Next(now, ra), b.Next(now, rb)
		if ta != tb {
			t.Fatalf("step %d: fresh processes diverge (%g vs %g)", i, ta, tb)
		}
		now = ta
	}
}

func TestCityValidate(t *testing.T) {
	good := CityScenario{Rows: 2, Cols: 2, TotalRate: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid city rejected: %v", err)
	}
	bad := []CityScenario{
		{Rows: 0, Cols: 2, TotalRate: 0.1},
		{Rows: 2, Cols: -1, TotalRate: 0.1},
		{Rows: 2, Cols: 2, TotalRate: 0},
		{Rows: 2, Cols: 2, TotalRate: 0.1, Profile: "spiral"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid city accepted", i)
		}
	}
}

// TestCityScenarioConfig: shard neighbourhoods inherit the city's
// population knobs and fall back to the standard defaults.
func TestCityScenarioConfig(t *testing.T) {
	c := CityScenario{Rows: 2, Cols: 2, TotalRate: 0.1, NodesPerShard: 24}
	scfg := c.ScenarioConfig(11)
	if scfg.Nodes != 24 || scfg.AreaM != 80 || scfg.Seed != 11 {
		t.Fatalf("scenario config not derived: %+v", scfg)
	}
	def := CityScenario{Rows: 1, Cols: 1, TotalRate: 0.1}.ScenarioConfig(3)
	if def.Nodes != 16 || def.AreaM != 80 {
		t.Fatalf("defaults not applied: %+v", def)
	}
}
