package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// model is the reference model of the queue: the engine as it was
// before timer lanes and the 4-ary key heap — one binary heap of event
// values sifted by swapping, Run draining each tick's batch into a
// buffer and pushing the unexecuted tail back on Stop.
// TestEngineMatchesModel drives it and an Engine with the same calls.
type model struct {
	now       Time
	seq       uint64
	heap      []modelEvent
	batch     []modelEvent
	nbatch    int
	stopped   bool
	Processed uint64
}

type modelEvent struct {
	at  Time
	seq uint64
	fn  func()
	afn func(any)
	arg any
}

func (ev *modelEvent) run() {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.afn(ev.arg)
}

func (m *model) Now() Time { return m.now }

func (m *model) At(t Time, fn func()) {
	if t < m.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, m.now))
	}
	m.seq++
	m.push(modelEvent{at: t, seq: m.seq, fn: fn})
}

func (m *model) AtArg(t Time, fn func(any), arg any) {
	if t < m.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, m.now))
	}
	m.seq++
	m.push(modelEvent{at: t, seq: m.seq, afn: fn, arg: arg})
}

func (m *model) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	m.At(m.now+d, fn)
}

func (m *model) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	m.AtArg(m.now+d, fn, arg)
}

func (m *model) Stop() { m.stopped = true }

func (m *model) less(i, j int) bool {
	if m.heap[i].at != m.heap[j].at {
		return m.heap[i].at < m.heap[j].at
	}
	return m.heap[i].seq < m.heap[j].seq
}

func (m *model) push(ev modelEvent) {
	m.heap = append(m.heap, ev)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(i, parent) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
}

func (m *model) pop() modelEvent {
	top := m.heap[0]
	n := len(m.heap) - 1
	m.heap[0] = m.heap[n]
	m.heap = m.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		least := l
		if r < n && m.less(r, l) {
			least = r
		}
		if !m.less(least, i) {
			break
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
	return top
}

func (m *model) Step() bool {
	if m.stopped || len(m.heap) == 0 {
		return false
	}
	ev := m.pop()
	m.now = ev.at
	m.Processed++
	ev.run()
	return true
}

func (m *model) Run(until Time) Time {
	for !m.stopped && len(m.heap) > 0 {
		next := m.heap[0].at
		if until > 0 && next > until {
			m.now = until
			break
		}
		m.batch = m.batch[:0]
		for len(m.heap) > 0 && m.heap[0].at == next {
			m.batch = append(m.batch, m.pop())
		}
		m.now = next
		m.nbatch = len(m.batch)
		for i := range m.batch {
			if m.stopped {
				for j := i; j < len(m.batch); j++ {
					m.push(m.batch[j])
				}
				break
			}
			m.Processed++
			m.nbatch--
			m.batch[i].run()
		}
		m.nbatch = 0
	}
	return m.now
}

func (m *model) Pending() int { return len(m.heap) + m.nbatch }

// queue is what the property test calls on both the Engine and the model.
type queue interface {
	Now() Time
	At(Time, func())
	AtArg(Time, func(any), any)
	After(float64, func())
	AfterArg(float64, func(any), any)
	Run(Time) Time
	Step() bool
	Stop()
	Pending() int
}

// driver schedules events on one queue and logs what fires. Each event
// has an ID; what its handler does (schedule children, stop the queue)
// is a pure function of the run seed and the ID, so two queues that fire
// in the same order receive the same calls.
type driver struct {
	q      queue
	seed   int64
	stopP  float64
	nextID int
	log    []fired
	argFn  func(any)
}

// delays mixes delays shared by many events (lane candidates), zero and
// negative ones; draws past the table are distinct random delays.
var delays = []float64{0.5, 0.5, 0.5, 1, 1, 0.25, 0, -0.3, 1e-4, 2}

// mix is a splitmix64 stream: a handler reseeds one per event, which
// math/rand's source is too costly to do.
type mix uint64

func (m *mix) next() uint64 {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (m *mix) Intn(n int) int   { return int(m.next() % uint64(n)) }
func (m *mix) Float64() float64 { return float64(m.next()>>11) / (1 << 53) }

func (d *driver) delay(r *mix) float64 {
	if i := r.Intn(len(delays) + 3); i < len(delays) {
		return delays[i]
	}
	return r.Float64() * 3
}

// schedule issues one call chosen by r on d's queue.
func (d *driver) schedule(r *mix) {
	d.nextID++
	id := d.nextID
	now := d.q.Now()
	switch r.Intn(5) {
	case 0:
		d.q.After(d.delay(r), func() { d.fire(id) })
	case 1:
		d.q.AfterArg(d.delay(r), d.argFn, id)
	case 2:
		d.q.At(now+max(0, d.delay(r)), func() { d.fire(id) })
	case 3:
		d.q.AtArg(now+max(0, d.delay(r)), d.argFn, id)
	default: // a same-time burst
		for j := r.Intn(6); j >= 0; j-- {
			d.q.At(now+0.5, func() { d.fire(id) })
		}
	}
}

func (d *driver) fire(id int) {
	d.log = append(d.log, fired{id, d.q.Now()})
	r := mix(d.seed*1_000_003 + int64(id))
	for n := r.Intn(2); n > 0 && d.nextID < 4000; n-- {
		d.schedule(&r) // re-entrant scheduling
	}
	if r.Float64() < d.stopP {
		d.q.Stop()
	}
}

func newDriver(q queue, seed int64, stopP float64) *driver {
	d := &driver{q: q, seed: seed, stopP: stopP}
	d.argFn = func(a any) { d.fire(a.(int)) }
	return d
}

type fired struct {
	id int
	at Time
}

type state struct {
	Now       Time
	Processed uint64
	Pending   int
	Fired     int
}

// TestEngineMatchesModel drives an Engine and the model with the same
// random schedule — every scheduling call, shared, distinct, zero and
// negative delays, same-time bursts, handlers that schedule re-entrantly,
// Step interleaved with Run(until), Stop inside a tick's batch and Run
// after it — and requires identical fire order, Now, Processed and
// Pending after every phase.
func TestEngineMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		stopP := 0.0
		if seed%4 == 0 {
			stopP = 0.002
		}
		eng, ref := New(1), &model{}
		de, dm := newDriver(eng, seed, stopP), newDriver(ref, seed, stopP)
		r := rand.New(rand.NewSource(seed))
		for phase := 0; phase < 40; phase++ {
			var op func(*driver)
			switch r.Intn(4) {
			case 0:
				n := r.Intn(30)
				op = func(d *driver) {
					rr := mix(seed*7919 + int64(phase))
					for i := 0; i < n; i++ {
						d.schedule(&rr)
					}
				}
			case 1:
				n := r.Intn(20)
				op = func(d *driver) {
					for i := 0; i < n; i++ {
						d.q.Step()
					}
				}
			case 2:
				until := r.Float64() * 4
				op = func(d *driver) { d.q.Run(d.q.Now() + until) }
			default:
				op = func(d *driver) { d.q.Run(0) }
			}
			op(de)
			op(dm)
			got := state{eng.Now(), eng.Processed, eng.Pending(), len(de.log)}
			want := state{ref.Now(), ref.Processed, ref.Pending(), len(dm.log)}
			if got != want || !reflect.DeepEqual(de.log, dm.log) {
				for i := range de.log {
					if i >= len(dm.log) || de.log[i] != dm.log[i] {
						t.Logf("first divergence at event %d: engine fired %+v", i, de.log[i])
						break
					}
				}
				t.Fatalf("seed %d phase %d: engine %+v, model %+v", seed, phase, got, want)
			}
		}
	}
}

// TestEngineStopInsideTick stops the queue in the middle of a tick whose
// events were all queued before it started, then checks that the engine
// holds what the model holds and that a later Run does nothing more.
func TestEngineStopInsideTick(t *testing.T) {
	for _, q := range []queue{New(1), &model{}} {
		fired := 0
		for i := 0; i < 6; i++ {
			q.After(1, func() {
				fired++
				if fired == 3 {
					q.Stop()
				}
			})
		}
		q.Run(0)
		q.Run(0)
		if fired != 3 || q.Pending() != 3 || q.Now() != 1 {
			t.Errorf("%T: fired %d, pending %d, now %v; want 3, 3, 1", q, fired, q.Pending(), q.Now())
		}
	}
}
