package xp

import (
	"math"
	"strconv"
	"testing"
)

// TestE17ParallelDeterminism is the open-system half of the sweep
// engine's core contract: a long-horizon churn simulation, fanned out
// across workers, renders byte-identical tables at any pool width —
// every arrival time, holding time and churn victim comes from rngs the
// replication owns.
func TestE17ParallelDeterminism(t *testing.T) {
	tables := map[int]string{}
	for _, par := range []int{1, 8} {
		cfg := Config{Seed: 3, Repeats: 2, Quick: true, Parallel: par}
		tbl, err := E17OfferedLoad(cfg)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		tables[par] = tbl.String()
	}
	if tables[1] != tables[8] {
		t.Errorf("E17 table differs between parallel 1 and 8:\n--- 1 ---\n%s--- 8 ---\n%s", tables[1], tables[8])
	}
}

// TestE17LoadMonotonicity: offered load is a real axis — more arrivals
// per second must not raise the admission ratio, and utilization must
// not fall (quick config, two load points).
func TestE17LoadMonotonicity(t *testing.T) {
	tbl, err := E17OfferedLoad(Config{Seed: 1, Repeats: 2, Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("expected >= 2 load points, got %d", len(tbl.Rows))
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// admission column 2 ("97.3%"), cpu-util column 7.
	adm := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[2][:len(row[2])-1], 64)
		if err != nil {
			t.Fatalf("bad admission cell %q: %v", row[2], err)
		}
		return v
	}
	util := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("bad util cell %q: %v", row[7], err)
		}
		return v
	}
	if adm(last) > adm(first) {
		t.Errorf("admission rose with load: %.1f%% at low vs %.1f%% at high", adm(first), adm(last))
	}
	if util(last) < util(first) {
		t.Errorf("cpu utilization fell with load: %.3f at low vs %.3f at high", util(first), util(last))
	}
}

// TestE19ChurnCostsReconfigurations: with node churn on, the monitor
// must detect silent members and renegotiate — the reconfiguration
// counters separate E19 from a closed world that merely re-runs E17.
func TestE19ChurnCostsReconfigurations(t *testing.T) {
	tbl, err := E19CombinedChurn(Config{Seed: 1, Repeats: 2, Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, churned := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if base[3] != "0.0" {
		t.Errorf("no-churn row reports reconfigurations: %v", base)
	}
	reconf, err := strconv.ParseFloat(churned[3], 64)
	if err != nil {
		t.Fatalf("bad reconf cell %q: %v", churned[3], err)
	}
	leaves, err := strconv.ParseFloat(churned[5], 64)
	if err != nil {
		t.Fatalf("bad leaves cell %q: %v", churned[5], err)
	}
	if leaves == 0 {
		t.Fatal("churned row saw no node leaves; the sweep exercises nothing")
	}
	if reconf == 0 {
		t.Error("churn produced node leaves but zero reconfigurations; is the monitor wired?")
	}
}

// TestE29GapWithinBound: no admission policy may extract more utility
// than the clairvoyant bound of its own recorded trace. optGap clamps
// to [0, 1], so a gap column in range proves little on its own: a bound
// that undershoots reads as gap 0. The utility and bound columns are
// therefore checked against each other, and a row whose utility falls
// short of its bound must show a positive gap (some seed fell short).
func TestE29GapWithinBound(t *testing.T) {
	tbl, err := E29AdmissionPolicies(Config{Seed: 1, Repeats: 5, Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, c := range tbl.Cols {
		col[c] = i
	}
	num := func(row []string, name string) float64 {
		i, ok := col[name]
		if !ok || i >= len(row) {
			t.Fatalf("E29 has no %q cell in row %v", name, row)
		}
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("E29 %s cell %q is not a finite number (row %v)", name, row[i], row)
		}
		return v
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("E29 rendered no rows")
	}
	for _, row := range tbl.Rows {
		utility, bound, gap := num(row, "utility"), num(row, "bound"), num(row, "gap")
		if utility > bound {
			t.Errorf("utility %g exceeds the clairvoyant bound %g: %v", utility, bound, row)
		}
		if gap < 0 || gap > 1 {
			t.Errorf("gap %g outside [0, 1]: %v", gap, row)
		}
		if utility < bound && gap == 0 {
			t.Errorf("utility %g short of bound %g but gap 0: %v", utility, bound, row)
		}
	}
}
