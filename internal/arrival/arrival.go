package arrival

import (
	"math"
	"math/rand"
)

// Process generates successive arrival times on the simulated clock.
// Implementations may carry state between calls (the MMPP tracks its
// modulating phase), so a Process value belongs to one replication and
// must be stepped with non-decreasing now values.
type Process interface {
	// Next returns the first arrival time strictly after now, drawing
	// randomness only from rng. It returns +Inf when the process will
	// never produce another arrival (zero-rate configurations).
	Next(now float64, rng *rand.Rand) float64
}

// exp draws an exponential variate with the given mean (0 if mean <= 0).
func exp(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}

// Exp draws an exponential duration with the given mean: the holding
// times and churn downtimes of the session lifecycle use this so that
// every duration comes from the replication's own rng.
func Exp(rng *rand.Rand, mean float64) float64 { return exp(rng, mean) }

// Poisson is a homogeneous Poisson process: i.i.d. exponential
// inter-arrival times at the configured rate (arrivals per simulated
// second).
type Poisson struct {
	Rate float64
}

// Next implements Process.
func (p Poisson) Next(now float64, rng *rand.Rand) float64 {
	if p.Rate <= 0 {
		return math.Inf(1)
	}
	return now + rng.ExpFloat64()/p.Rate
}

// RateProfile is a deterministic instantaneous-rate function lambda(t)
// for inhomogeneous Poisson streams. MaxRate bounds the profile from
// above (the thinning envelope); MeanRate is the long-run average, used
// by experiments that compare arrival shapes at equal offered load.
type RateProfile interface {
	Rate(t float64) float64
	MaxRate() float64
	MeanRate() float64
}

// Diurnal is the sinusoidal day/night profile
//
//	lambda(t) = Mean * (1 + Amplitude*sin(2*pi*(t+Phase)/Period))
//
// with relative Amplitude in [0, 1] so the rate never goes negative.
type Diurnal struct {
	// Mean is the long-run average rate (arrivals per second).
	Mean float64
	// Amplitude is the relative swing around the mean, clamped to [0,1].
	Amplitude float64
	// Period is the cycle length in simulated seconds.
	Period float64
	// Phase shifts the cycle start (seconds).
	Phase float64
}

func (d Diurnal) amp() float64 {
	a := d.Amplitude
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	return a
}

// Rate implements RateProfile.
func (d Diurnal) Rate(t float64) float64 {
	if d.Mean <= 0 || d.Period <= 0 {
		return 0
	}
	return d.Mean * (1 + d.amp()*math.Sin(2*math.Pi*(t+d.Phase)/d.Period))
}

// MaxRate implements RateProfile.
func (d Diurnal) MaxRate() float64 {
	if d.Mean <= 0 {
		return 0
	}
	return d.Mean * (1 + d.amp())
}

// MeanRate implements RateProfile: the sinusoid integrates to zero over
// a full period, so the mean is Mean by construction.
func (d Diurnal) MeanRate() float64 {
	if d.Mean <= 0 {
		return 0
	}
	return d.Mean
}

// Burst is the periodic step profile: rate Burst for the first BurstLen
// seconds of every Period, rate Base for the rest. It models flash
// crowds (everyone leaves the meeting room at once) against a quiet
// background.
type Burst struct {
	Base, Burst      float64
	Period, BurstLen float64
}

// Rate implements RateProfile.
func (b Burst) Rate(t float64) float64 {
	if b.Period <= 0 {
		return b.Base
	}
	phase := math.Mod(t, b.Period)
	if phase < 0 {
		phase += b.Period
	}
	if phase < b.BurstLen {
		return b.Burst
	}
	return b.Base
}

// MaxRate implements RateProfile.
func (b Burst) MaxRate() float64 { return math.Max(b.Base, b.Burst) }

// MeanRate implements RateProfile.
func (b Burst) MeanRate() float64 {
	if b.Period <= 0 {
		return b.Base
	}
	frac := b.BurstLen / b.Period
	if frac > 1 {
		frac = 1
	}
	return b.Burst*frac + b.Base*(1-frac)
}

// maxThinningRejects bounds the candidate loop so an (effectively)
// zero-rate profile terminates with +Inf instead of spinning.
const maxThinningRejects = 1 << 20

// Inhomogeneous is an inhomogeneous Poisson process generated by
// thinning: candidates are drawn from a homogeneous envelope process at
// MaxRate and accepted with probability lambda(t)/MaxRate. This is the
// standard conditional-density recipe for simulating inhomogeneous
// Poisson point processes; acceptance consumes exactly two rng draws per
// candidate, so the sequence is a pure function of (profile, seed).
type Inhomogeneous struct {
	Profile RateProfile
}

// Next implements Process.
func (p Inhomogeneous) Next(now float64, rng *rand.Rand) float64 {
	max := p.Profile.MaxRate()
	if max <= 0 {
		return math.Inf(1)
	}
	t := now
	for i := 0; i < maxThinningRejects; i++ {
		t += rng.ExpFloat64() / max
		if rng.Float64()*max < p.Profile.Rate(t) {
			return t
		}
	}
	return math.Inf(1)
}

// MMPP is a two-state (on/off) Markov-modulated Poisson process:
// arrivals come at OnRate while the modulating chain is in the on phase
// and not at all in the off phase; phases last exponential times with
// means MeanOn and MeanOff. It produces burstier streams than any
// deterministic profile at the same mean rate. The zero value of the
// phase state starts on; step it with non-decreasing now values from a
// single replication.
type MMPP struct {
	OnRate          float64
	MeanOn, MeanOff float64

	init     bool
	on       bool
	phaseEnd float64
}

// MeanRate returns the long-run average arrival rate.
func (m *MMPP) MeanRate() float64 {
	total := m.MeanOn + m.MeanOff
	if total <= 0 {
		return 0
	}
	return m.OnRate * m.MeanOn / total
}

// Next implements Process. Within a phase the arrival stream is
// Poisson, so a candidate overshooting the phase boundary is discarded
// and redrawn in the next phase (memorylessness makes the restart
// exact).
func (m *MMPP) Next(now float64, rng *rand.Rand) float64 {
	if m.MeanOn <= 0 && m.MeanOff <= 0 {
		return math.Inf(1)
	}
	if !m.init {
		m.init = true
		m.on = true
		m.phaseEnd = now + exp(rng, m.MeanOn)
	}
	t := now
	for i := 0; i < maxThinningRejects; i++ {
		if m.on && m.OnRate > 0 {
			cand := t + rng.ExpFloat64()/m.OnRate
			if cand <= m.phaseEnd {
				return cand
			}
		}
		t = m.phaseEnd
		m.on = !m.on
		if m.on {
			m.phaseEnd = t + exp(rng, m.MeanOn)
		} else {
			m.phaseEnd = t + exp(rng, m.MeanOff)
		}
	}
	return math.Inf(1)
}
