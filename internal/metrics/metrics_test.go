package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestSampleBasics(t *testing.T) {
	s := sampleOf(1, 2, 3, 4)
	if s.N() != 4 || s.Sum() != 10 || s.Mean() != 2.5 {
		t.Errorf("N/Sum/Mean = %d/%v/%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Max() != 4 {
		t.Errorf("Max = %v", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := &Sample{}
	if s.N() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty sample must answer zeros")
	}
}

func TestQuantile(t *testing.T) {
	s := sampleOf(4, 1, 3, 2) // unsorted on purpose
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := s.Quantile(0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	if q := s.Quantile(-1); q != 1 {
		t.Errorf("clamped low = %v", q)
	}
	if q := s.Quantile(2); q != 4 {
		t.Errorf("clamped high = %v", q)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		s := sampleOf(xs...)
		qs := []float64{0, 0.25, 0.5, 0.75, 1}
		var prev float64 = math.Inf(-1)
		for _, q := range qs {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Quantile(0) == sorted[0] && s.Quantile(1) == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	s := sampleOf(3, 1)
	_ = s.Quantile(0.5) // sorts
	s.Add(2)
	if s.Quantile(0.5) != 2 {
		t.Error("Add after Quantile lost re-sort")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 2.3456789)
	tb.AddRow("with,comma", `quote"d`)
	tb.Note("footnote %d", 7)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.346") {
		t.Errorf("rows wrong:\n%s", out)
	}
	if !strings.Contains(out, "note: footnote 7") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header alignment: each data row starts with padded first column.
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line = %q", lines[1])
	}

	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Error("comma cell not quoted")
	}
	if !strings.Contains(csv, `"quote""d"`) {
		t.Error("quote cell not escaped")
	}
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("csv header = %q", csv)
	}
}

func TestFormatCellInteger(t *testing.T) {
	tb := NewTable("x", "v")
	tb.AddRow(3.0)
	if tb.Rows[0][0] != "3.0" {
		t.Errorf("integral float renders %q", tb.Rows[0][0])
	}
	tb.AddRow(float32(1.5))
	if tb.Rows[1][0] != "1.5" {
		t.Errorf("float32 renders %q", tb.Rows[1][0])
	}
	tb.AddRow(42)
	if tb.Rows[2][0] != "42" {
		t.Errorf("int renders %q", tb.Rows[2][0])
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != "50.0%" {
		t.Errorf("Ratio = %q", Ratio(1, 2))
	}
	if Ratio(1, 0) != "n/a" {
		t.Error("division by zero not guarded")
	}
}
