package event

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"leaveintime/internal/rng"
)

// The order oracle runs one byte script against the engine and against
// refSim — a list scanned for its (time, sched, tie) minimum on every
// fire — and requires the two logs to be equal. The script drives the
// run from outside (Step, Run, RunBefore, RunAll, watchdog trips and
// re-arms) and from inside handlers (zero, one or several schedules,
// local and stamped, many at one instant, some at Now; cancels of
// pending, firing and just-canceled events, and of any event seen to
// fire, whatever now holds its slot; NextTime, the pending count, a
// nested Step), and every fire and every observation is logged.

// engine is what a script needs of a simulator; events are named by
// the script's own ids so both implementations log the same thing.
type engine interface {
	Now() float64
	pendingCount() int
	NextTime() (float64, bool)
	schedule(id int, t float64, fn Handler)
	stamped(id int, t, sched float64, tie uint64, fn Handler)
	cancel(id int)
	Step() bool
	Run(until float64)
	RunBefore(until float64)
	RunAll()
	SetWatchdog(w Watchdog)
	tripped() bool
	// verify checks the implementation's own invariants, between steps
	// and inside handlers.
	verify()
}

// realSim is the engine under test.
type realSim struct {
	*Simulator
	evs map[int]Event
	t   testing.TB
}

func (r *realSim) schedule(id int, t float64, fn Handler) { r.evs[id] = r.Schedule(t, fn) }
func (r *realSim) stamped(id int, t, sched float64, tie uint64, fn Handler) {
	r.evs[id] = r.ScheduleStamped(t, sched, tie, fn)
}
func (r *realSim) cancel(id int)     { r.Cancel(r.evs[id]) }
func (r *realSim) tripped() bool     { return r.Tripped() != "" }
func (r *realSim) pendingCount() int { return r.pending }
func (r *realSim) verify()           { checkTree(r.t, r.Simulator) }

// refSim is the reference: no tree, no slot reuse, no laziness.
type refSim struct {
	now   float64
	seq   uint64
	evs   map[int]*refEv
	wd    Watchdog
	fired int64
	trip  bool
}

type refEv struct {
	time, sched float64
	tie         uint64
	fn          Handler
}

func (r *refSim) Now() float64      { return r.now }
func (r *refSim) pendingCount() int { return len(r.evs) }

func (r *refSim) min() (int, *refEv) {
	var best *refEv
	bid := -1
	for id, e := range r.evs {
		if best == nil || e.time < best.time ||
			e.time == best.time && (e.sched < best.sched || e.sched == best.sched && e.tie < best.tie) {
			best, bid = e, id
		}
	}
	return bid, best
}

func (r *refSim) NextTime() (float64, bool) {
	if _, e := r.min(); e != nil {
		return e.time, true
	}
	return 0, false
}

func (r *refSim) schedule(id int, t float64, fn Handler) { r.stamped(id, t, r.now, r.seq, fn) }
func (r *refSim) stamped(id int, t, sched float64, tie uint64, fn Handler) {
	r.evs[id] = &refEv{time: t, sched: sched, tie: tie, fn: fn}
	r.seq++
}
func (r *refSim) cancel(id int) { delete(r.evs, id) }

// step fires the minimum if it is at or before limit.
func (r *refSim) step(limit float64) bool {
	id, e := r.min()
	if r.trip || e == nil || e.time > limit {
		return false
	}
	if r.wd != (Watchdog{}) {
		if r.wd.MaxEvents > 0 && r.fired >= r.wd.MaxEvents || r.wd.MaxSim > 0 && e.time > r.wd.MaxSim {
			r.trip = true
			return false
		}
		r.fired++
	}
	delete(r.evs, id)
	r.now = e.time
	e.fn()
	return true
}

func (r *refSim) Step() bool { return r.step(math.Inf(1)) }
func (r *refSim) run(limit, clamp float64) {
	for r.step(limit) {
	}
	if r.now < clamp {
		r.now = clamp
	}
}
func (r *refSim) Run(until float64) { r.run(until, until) }
func (r *refSim) RunBefore(until float64) {
	// Script times are multiples of 1/4, so "strictly before" is "at or
	// before an eighth earlier".
	r.run(until-0.125, until)
}
func (r *refSim) RunAll()                { r.run(math.Inf(1), 0) }
func (r *refSim) SetWatchdog(w Watchdog) { r.wd, r.fired, r.trip = w, 0, false }
func (r *refSim) tripped() bool          { return r.trip }
func (r *refSim) verify()                {}

// scriptCap bounds the events one script may schedule, so a script
// whose handlers keep re-arming still drains.
const scriptCap = 300

// deltas are the script's time steps: dyadic, so sums are exact and
// instants collide often.
var deltas = [8]float64{0, 0, 0.25, 0.5, 1, 1, 2, 5}

type scriptRun struct {
	s       engine
	b       []byte
	log     strings.Builder
	pending []int // ids the script has scheduled and neither seen fire nor canceled
	fired   []int // ids the script has seen fire
	nextID  int
	stamps  uint64
	depth   int
}

func (r *scriptRun) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *scriptRun) observe(tag string) {
	t, ok := r.s.NextTime()
	fmt.Fprintf(&r.log, "%s now=%v pending=%d next=%v,%v\n", tag, r.s.Now(), r.s.pendingCount(), t, ok)
}

func (r *scriptRun) drop(id int) {
	for i, p := range r.pending {
		if p == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

// arm schedules one event, local or stamped by c's low bit.
func (r *scriptRun) arm(c byte) {
	if r.nextID >= scriptCap {
		return
	}
	id := r.nextID
	r.nextID++
	r.pending = append(r.pending, id)
	d := deltas[c>>1&7]
	t := r.s.Now() + d
	fn := func() { r.handle(id) }
	if c&1 == 0 {
		r.s.schedule(id, t, fn)
		return
	}
	// Stamped: a schedule instant at or before the fire time — equal to
	// it, equal to Now (so it ties local events on two key parts), or
	// earlier — and a unique top-bit tie.
	back := [4]float64{0, d, 0.25, 3}[c>>4&3]
	r.stamps++
	r.s.stamped(id, t, t-back, 1<<63|r.stamps, fn)
}

func (r *scriptRun) cancelOne(c byte) {
	if len(r.pending) == 0 {
		return
	}
	id := r.pending[int(c)%len(r.pending)]
	r.drop(id)
	r.s.cancel(id)
	fmt.Fprintf(&r.log, "cancel %d\n", id)
	if c&0x80 != 0 {
		r.s.cancel(id) // twice in a row: a no-op
	}
}

func (r *scriptRun) handle(id int) {
	fmt.Fprintf(&r.log, "fire %d at %v pending=%d\n", id, r.s.Now(), r.s.pendingCount())
	r.drop(id)
	r.fired = append(r.fired, id)
	r.s.verify()
	defer r.s.verify()
	c := r.next()
	if c&0x04 != 0 {
		r.s.cancel(id) // the firing event: a no-op
	}
	for n := int(c & 3); n > 0; n-- {
		switch a := r.next(); a & 7 {
		case 0, 1, 2, 3:
			r.arm(a >> 2)
		case 4:
			r.arm(a >> 2)
			r.arm(r.next())
		case 5:
			r.cancelOne(r.next())
		case 6:
			if r.depth < 2 {
				r.depth++
				fmt.Fprintf(&r.log, "nested %v\n", r.s.Step())
				r.depth--
			}
		case 7:
			r.observe("in")
		}
	}
}

// runScript plays b against s and returns the log.
func runScript(s engine, b []byte) string {
	r := &scriptRun{s: s, b: b}
	for n := 1 + int(r.next()&31); n > 0; n-- {
		r.arm(r.next())
	}
	for steps := 0; len(r.b) > 0 && steps < 4*scriptCap; steps++ {
		c := r.next()
		until := s.Now() + deltas[c>>3&7]
		switch c & 7 {
		case 0:
			fmt.Fprintf(&r.log, "step %v\n", s.Step())
			if len(r.fired) > 0 {
				// Already fired, its slot perhaps reused: a no-op.
				s.cancel(r.fired[int(c>>3)%len(r.fired)])
			}
		case 1:
			s.Run(until)
		case 2:
			s.RunBefore(until)
		case 3:
			if c>>3 == 31 {
				s.RunAll()
			} else {
				s.Run(until + 5)
			}
		case 4, 5:
			w := Watchdog{MaxEvents: 1 + int64(c>>6)}
			if c&7 == 5 {
				w = Watchdog{MaxSim: until}
			}
			s.SetWatchdog(w)
			s.Run(until + 1)
			fmt.Fprintf(&r.log, "tripped %v\n", s.tripped())
			r.observe("trip")
			s.SetWatchdog(Watchdog{})
		case 6:
			r.arm(r.next())
		case 7:
			r.cancelOne(r.next())
		}
		r.observe("out")
		s.verify()
	}
	s.RunAll()
	r.observe("end")
	s.verify()
	return r.log.String()
}

func checkScript(t *testing.T, b []byte) {
	t.Helper()
	got := runScript(&realSim{Simulator: New(), evs: map[int]Event{}, t: t}, b)
	want := runScript(&refSim{evs: map[int]*refEv{}}, b)
	if got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				lo := i - 5
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("script %x: log line %d is %q, reference has %q; before it:\n%s",
					b, i, g[i], append(w, "<end>")[i], strings.Join(g[lo:i], "\n"))
			}
		}
		t.Fatalf("script %x: engine log is a strict prefix of the reference's", b)
	}
}

// TestEngineOrderOracle plays random scripts; the fired sequence must
// be the reference's sort by (time, sched, tie) and every Now, pending
// count and NextTime reading must match it, inside handlers and out.
func TestEngineOrderOracle(t *testing.T) {
	r := rng.New(18)
	for i := 0; i < 400; i++ {
		b := make([]byte, 40+r.Intn(400))
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		checkScript(t, b)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 2, 4, 9, 11, 13, 3, 3, 0x1b, 0x04, 0x22})
	r := rng.New(7)
	for i := 0; i < 4; i++ {
		b := make([]byte, 200)
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 2048 {
			b = b[:2048]
		}
		checkScript(t, b)
	})
}
