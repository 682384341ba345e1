package arrival

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ksExp1 is the Kolmogorov-Smirnov statistic of gaps against the Exp(1)
// CDF, scaled by sqrt(n): 1.63 is its 1% critical value. It sorts gaps.
func ksExp1(gaps []float64) float64 {
	sort.Float64s(gaps)
	n := float64(len(gaps))
	var worst float64
	for i, g := range gaps {
		cdf := 1 - math.Exp(-g)
		d := math.Max(math.Abs(cdf-float64(i)/n), math.Abs(cdf-float64(i+1)/n))
		worst = math.Max(worst, d)
	}
	return worst * math.Sqrt(n)
}

// TestPoissonInterArrivalKS is a Kolmogorov-Smirnov-style sanity check:
// the empirical CDF of homogeneous inter-arrival times must track the
// exponential CDF at the configured rate. With n = 2000 the 1% KS
// critical value is 1.63/sqrt(n) ~ 0.036; the fixed seed makes the test
// deterministic, the threshold just documents the calibration.
func TestPoissonInterArrivalKS(t *testing.T) {
	const rate = 2.0
	const n = 2000
	r := rng(7)
	p := Poisson{Rate: rate}
	gaps := make([]float64, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		next := p.Next(now, r)
		gaps = append(gaps, rate*(next-now))
		now = next
	}
	if d := ksExp1(gaps); d > 1.63 {
		t.Errorf("sqrt(n)*KS statistic %.3f exceeds the 1%% critical value 1.63", d)
	}
}

// TestThinningByTimeRescaling checks the whole distribution of an
// inhomogeneous stream, not just its window counts: by the
// time-rescaling theorem the gaps Lambda(t_i) - Lambda(t_i-1) of a
// Poisson process with cumulative rate Lambda are i.i.d. Exp(1). Lambda
// is the closed-form integral of each profile.
func TestThinningByTimeRescaling(t *testing.T) {
	diurnal := Diurnal{Mean: 1, Amplitude: 0.8, Period: 200}
	burst := Burst{Base: 0.5, Burst: 5, Period: 100, BurstLen: 20}
	cases := []struct {
		name    string
		profile RateProfile
		horizon float64
		lambda  func(t float64) float64
	}{
		{"diurnal", diurnal, 4000, func(t float64) float64 {
			w := 2 * math.Pi / diurnal.Period
			return diurnal.Mean * (t + diurnal.Amplitude/w*(1-math.Cos(w*t)))
		}},
		{"burst", burst, 2000, func(t float64) float64 {
			cycles := math.Floor(t / burst.Period)
			phase := t - cycles*burst.Period
			in := math.Min(phase, burst.BurstLen)
			perCycle := burst.Burst*burst.BurstLen + burst.Base*(burst.Period-burst.BurstLen)
			return cycles*perCycle + burst.Burst*in + burst.Base*(phase-in)
		}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			var gaps []float64
			prev := 0.0
			for _, at := range Times(Inhomogeneous{Profile: c.profile}, c.horizon, rng(seed)) {
				gaps = append(gaps, c.lambda(at)-prev)
				prev = c.lambda(at)
			}
			d := ksExp1(gaps)
			t.Logf("%s seed %d: n = %d, sqrt(n)*D = %.3f", c.name, seed, len(gaps), d)
			if d > 1.63 {
				t.Errorf("%s seed %d: rescaled gaps are not Exp(1): sqrt(n)*D = %.3f > 1.63 (1%% level)", c.name, seed, d)
			}
		}
	}
}

// TestThinningTracksProfile verifies thinning correctness for an
// inhomogeneous step profile: the per-window counts must be
// proportional to the integral of the rate over each window, i.e. the
// burst windows must collect Burst/Base times the arrivals per second
// of the quiet windows.
func TestThinningTracksProfile(t *testing.T) {
	prof := Burst{Base: 0.5, Burst: 5, Period: 100, BurstLen: 20}
	const horizon = 40000.0
	times := Times(Inhomogeneous{Profile: prof}, horizon, rng(11))

	var inBurst, inBase int
	for _, at := range times {
		if math.Mod(at, prof.Period) < prof.BurstLen {
			inBurst++
		} else {
			inBase++
		}
	}
	// Expected arrivals: burst windows 5/s * 20s, base windows 0.5/s * 80s
	// per period, 400 periods.
	periods := horizon / prof.Period
	wantBurst := prof.Burst * prof.BurstLen * periods
	wantBase := prof.Base * (prof.Period - prof.BurstLen) * periods
	for _, c := range []struct {
		name string
		got  int
		want float64
	}{{"burst", inBurst, wantBurst}, {"base", inBase, wantBase}} {
		// Poisson counts: 5 sigma around the mean.
		if math.Abs(float64(c.got)-c.want) > 5*math.Sqrt(c.want) {
			t.Errorf("%s windows collected %d arrivals, want %.0f +- %.0f", c.name, c.got, c.want, 5*math.Sqrt(c.want))
		}
	}

	// Total count must match the profile's mean rate.
	want := prof.MeanRate() * horizon
	if math.Abs(float64(len(times))-want) > 5*math.Sqrt(want) {
		t.Errorf("total %d arrivals, want %.0f from mean rate %.3f", len(times), want, prof.MeanRate())
	}
}

// TestDiurnalHalves splits a sinusoidal cycle into its high (rising
// sine) and low halves: with amplitude a, the high half carries
// (1 + 2a/pi)/2 of the arrivals.
func TestDiurnalHalves(t *testing.T) {
	prof := Diurnal{Mean: 1, Amplitude: 0.8, Period: 200}
	const horizon = 30000.0
	times := Times(Inhomogeneous{Profile: prof}, horizon, rng(13))
	var high int
	for _, at := range times {
		if math.Mod(at, prof.Period) < prof.Period/2 {
			high++
		}
	}
	total := float64(len(times))
	wantFrac := (1 + 2*prof.Amplitude/math.Pi) / 2
	gotFrac := float64(high) / total
	if math.Abs(gotFrac-wantFrac) > 0.02 {
		t.Errorf("high-half fraction %.4f, want %.4f", gotFrac, wantFrac)
	}
	if math.Abs(total-prof.MeanRate()*horizon) > 5*math.Sqrt(prof.MeanRate()*horizon) {
		t.Errorf("total %d arrivals, want %.0f", len(times), prof.MeanRate()*horizon)
	}
}

// TestMMPPMeanRate checks the on/off process against its analytic
// long-run rate.
func TestMMPPMeanRate(t *testing.T) {
	m := &MMPP{OnRate: 2, MeanOn: 30, MeanOff: 90}
	want := m.MeanRate()
	if got := 2.0 * 30 / 120; math.Abs(want-got) > 1e-12 {
		t.Fatalf("analytic MeanRate = %g, want %g", want, got)
	}
	const horizon = 50000.0
	times := Times(m, horizon, rng(17))
	got := float64(len(times)) / horizon
	// On/off modulation inflates count variance well past Poisson:
	// var ~ mean * (1 + 2*lambda_on*burst-length factor); 10% is ample
	// at this horizon.
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("empirical rate %.4f, want %.4f +- 10%%", got, want)
	}
}

// TestBitDeterminism: the same seed must reproduce every process's
// arrival sequence exactly — the property the open-system experiments
// rely on for parallelism-independent tables.
func TestBitDeterminism(t *testing.T) {
	build := func() []Process {
		return []Process{
			Poisson{Rate: 0.3},
			Inhomogeneous{Profile: Diurnal{Mean: 0.2, Amplitude: 0.9, Period: 600}},
			Inhomogeneous{Profile: Burst{Base: 0.05, Burst: 1, Period: 300, BurstLen: 30}},
			&MMPP{OnRate: 0.5, MeanOn: 60, MeanOff: 120},
		}
	}
	a, b := build(), build()
	for i := range a {
		ta := Times(a[i], 5000, rng(99))
		tb := Times(b[i], 5000, rng(99))
		if len(ta) != len(tb) {
			t.Fatalf("process %d: %d vs %d arrivals from the same seed", i, len(ta), len(tb))
		}
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("process %d arrival %d: %v != %v", i, k, ta[k], tb[k])
			}
		}
		if len(ta) == 0 {
			t.Fatalf("process %d produced no arrivals", i)
		}
	}
}

// TestZeroRateTerminates: zero-rate configurations must yield +Inf, not
// spin.
func TestZeroRateTerminates(t *testing.T) {
	r := rng(1)
	if got := (Poisson{}).Next(0, r); !math.IsInf(got, 1) {
		t.Errorf("Poisson{0}.Next = %v, want +Inf", got)
	}
	if got := (Inhomogeneous{Profile: Const(0)}).Next(0, r); !math.IsInf(got, 1) {
		t.Errorf("Inhomogeneous{0}.Next = %v, want +Inf", got)
	}
	if got := (&MMPP{}).Next(0, r); !math.IsInf(got, 1) {
		t.Errorf("MMPP{}.Next = %v, want +Inf", got)
	}
	if got := Times(Poisson{}, 100, r); len(got) != 0 {
		t.Errorf("Times on a zero-rate process returned %d arrivals", len(got))
	}
}

// TestMonotoneAndEqualMeanCalibration: arrivals are strictly
// increasing, and the three shaped profiles configured for equal mean
// load really do have equal MeanRate — the invariant E18 depends on.
func TestMonotoneAndEqualMeanCalibration(t *testing.T) {
	const mean = 0.1
	profiles := []RateProfile{
		Const(mean),
		Diurnal{Mean: mean, Amplitude: 0.8, Period: 600},
		Burst{Base: mean / 4, Burst: mean/4 + (3.0/4.0)*mean*10, Period: 600, BurstLen: 60},
	}
	for i, p := range profiles {
		if math.Abs(p.MeanRate()-mean) > 1e-12 {
			t.Errorf("profile %d MeanRate = %g, want %g", i, p.MeanRate(), mean)
		}
		times := Times(Inhomogeneous{Profile: p}, 3000, rng(23))
		for k := 1; k < len(times); k++ {
			if times[k] <= times[k-1] {
				t.Fatalf("profile %d: arrivals not strictly increasing at %d", i, k)
			}
		}
	}
	m := &MMPP{OnRate: mean * 3, MeanOn: 200, MeanOff: 400}
	if math.Abs(m.MeanRate()-mean) > 1e-12 {
		t.Errorf("MMPP MeanRate = %g, want %g", m.MeanRate(), mean)
	}
}

// Const is the constant-rate profile; thinning over it degenerates to a
// homogeneous Poisson process (every candidate is accepted).
type Const float64

// Rate implements RateProfile.
func (c Const) Rate(float64) float64 { return float64(c) }

// MaxRate implements RateProfile.
func (c Const) MaxRate() float64 { return float64(c) }

// MeanRate implements RateProfile.
func (c Const) MeanRate() float64 { return float64(c) }

// Times materializes every arrival in [0, horizon).
func Times(p Process, horizon float64, rng *rand.Rand) []float64 {
	var out []float64
	t := 0.0
	for {
		t = p.Next(t, rng)
		if math.IsInf(t, 1) || t >= horizon {
			return out
		}
		out = append(out, t)
	}
}
