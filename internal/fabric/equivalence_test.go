package fabric

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/adapt"
)

// cityReference holds the city-wide Stats the engine's former
// reference session loop (an unpooled copy of the loop, since deleted)
// returned for the scenario below, as "%+v" (shortest round-trip
// floats, sorted map keys): equal text means bit-equal Stats.
const cityReference = "testdata/pathwidth-city.txt"

var update = flag.Bool("update", false, "rewrite "+cityReference+" from the current loop (deliberate re-pins only)")

// TestPathWidthEquivalence runs one city at shard-pool widths 1 and 8:
// the Results must be equal to the last bit — every shard's stats and
// the merged city view — and the city must match the reference loop's
// recorded answer. This is the fabric-level face of the equivalence
// harness in internal/session: shards exercise slot recycling
// concurrently, so a pooled object escaping one shard's engine would
// show up here as a cross-width or reference diff. The churn +
// adaptation configuration drives the deepest event interleavings
// (kills, repairs, reboots racing departures).
func TestPathWidthEquivalence(t *testing.T) {
	build := func(parallel int) Config {
		cfg := testConfig(parallel)
		cfg.ChurnPerHour, cfg.ChurnDownMean = 240, 20
		ocfg := cfg.Organizer
		ocfg.Monitor = false
		ocfg.Reconfigure = false
		cfg.Organizer = ocfg
		cfg.Adapt = &adapt.Config{
			OnChurn:           adapt.DegradeToFit,
			DegradeOnPressure: true, UtilHigh: 0.85,
			UpgradeOnSlack: true, UtilLow: 0.6,
			Epoch: 10,
		}
		return cfg
	}
	ref, err := Run(build(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.City.Arrivals == 0 || ref.City.NodeLeaves == 0 {
		t.Fatalf("degenerate run: %+v", ref.City)
	}
	got := fmt.Sprintf("%+v\n", ref.City)
	if *update {
		if err := os.WriteFile(cityReference, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(cityReference)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("city diverges from the recorded reference answer\n got:  %s want: %s", got, want)
	}
	wide, err := Run(build(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, wide) {
		t.Fatalf("parallel 8 diverged from parallel 1:\n p1: %+v\n p8: %+v", ref.City, wide.City)
	}
}
