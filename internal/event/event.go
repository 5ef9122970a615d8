// Package event implements the deterministic discrete-event simulation
// engine underneath every experiment in this repository.
//
// The engine is a single-threaded event loop over a tournament (winner)
// tree of timestamped events. Ties in time are broken by scheduling
// order (a monotonically increasing sequence number), which makes every
// run bit-reproducible: the same inputs always produce the same event
// interleaving, independent of map iteration order or goroutine
// scheduling.
//
// # Performance model
//
// The engine is allocation-free in steady state: an event is stored in
// the slot it occupies in the event set, not in a struct of its own, and
// the caller holds a value handle (Event) to it. A long run reuses a
// small working set of slots instead of allocating one per occurrence.
//
// The pending events sit in slots, one per event source rather than per
// occurrence: the sources of a packet run re-arm themselves from inside
// their own handler — a port's transmission finish schedules the next
// finish, a traffic source its next emission, a link its next delivery
// — so the event that is firing keeps its slot while its handler runs
// (the hold) and the handler's first Schedule re-arms that slot in
// place. A fixed population of sources that each re-arm themselves is a
// k-way merge, and the slots are ordered by the structure for one: a
// complete binary tree whose leaves are the slots and whose every inner
// node names the slot that wins (fires first in) its subtree, the root
// naming the next event. Changing one slot replays the matches on its
// path to the root: a walk of known length, log2 of the slot count, in
// which each level compares the running winner with the other child's
// recorded winner and selects without a branch (see replay) — where a
// heap's sift picks among children and stops at a level the CPU cannot
// predict. A handler that schedules nothing has its slot emptied when
// it returns; anything that reads the root in between (NextTime, a
// nested Step) empties it first.
//
// The tree is three parallel arrays — the fire times as integer keys,
// the rest of each slot's event (schedule time, tie, handler and the
// slot's generation), the winners as 32-bit slot indices — so a replay
// reads and writes integers only and reads the schedule times and ties
// only when two fire times are equal.
// A re-arm that fires before every other pending event, the common case
// on a sparse run, is recognised from a bound kept on the other keys
// and replays nothing (see Simulator.second). The arrays double when
// every slot is taken and never shrink.
//
// Cancel is eager: it empties the event's slot and replays that path, so
// a canceled wake-up does not occupy the set until its fire time and the
// slot count follows the events pending. A slot's generation moves on
// each time an event leaves it, fired or canceled; a handle names a slot
// and the generation its event was scheduled in, so a handle to an event
// that is gone no longer matches, and Cancel of it is a no-op even once
// a later event holds the slot.
//
// # Ordering key
//
// Events are ordered by the triple (fire time, schedule time, tie).
// Schedule stamps the current clock as the schedule time and a
// monotone sequence number as the tie, which makes the triple order
// identical to the classic (time, seq) order: the sequence number is
// monotone in the schedule instant, so comparing schedule times first
// never disagrees with comparing sequence numbers. The extra key
// components exist for sharded execution (internal/shard):
// ScheduleStamped lets a cross-shard packet injection carry the
// schedule instant and tie of the *upstream* shard's transmission, so
// the receiving engine interleaves remote arrivals with local events
// in an order that depends only on the simulated history, never on
// how the network was partitioned.
package event

import (
	"math"
	"math/bits"
	"time"

	"leaveintime/internal/metrics"
)

// Handler is the action executed when an event fires.
type Handler func()

// Event is a handle to a scheduled occurrence in simulated time,
// returned by Schedule, ScheduleStamped and After for Cancel. It is a
// comparable value, and the zero Event names no event. A handle may be
// kept past its event: once the event has fired or been canceled, Cancel
// of the handle is a no-op, also after a later event took its slot. (A
// slot's generation is 32 bits, so that holds until the slot has been
// reused 2^31 times.)
type Event struct {
	slot int32  // the event's slot
	gen  uint32 // the slot's generation when the event was scheduled
}

// slotEv is what a slot holds beside its key: the rest of its event's
// ordering key, its handler, and the slot's generation. The generation
// starts at 1 and steps by 2 each time an event fires or is canceled
// out of the slot, so it is odd and never the zero Event's 0.
type slotEv struct {
	sched float64
	tie   uint64
	fn    Handler
	gen   uint32
}

// A slot's key is its event's fire time as an IEEE bit pattern, which
// orders as an unsigned integer because no fire time is negative (the
// clock starts at 0 and Schedule refuses the past) once -0 is folded
// into +0; integer compares are what replay's select needs to stay free
// of branches. An empty slot holds freeKey, which is above the bits of
// +Inf, so an event at +Inf still orders before it.
const freeKey = ^uint64(0)

func nodeKey(t float64) uint64 { return math.Float64bits(t + 0) }

// minSlots is the slot count of the first growth.
const minSlots = 8

// Simulator is a discrete-event simulator. The zero value is ready to
// use and starts at time 0.
type Simulator struct {
	now float64
	seq uint64

	// The event set: a winner tree over event slots. keys[i] and evs[i]
	// are slot i's fire-time key and the rest of its event (freeKey and
	// a nil handler when empty); len(keys) is a power of two. win has
	// twice that length: win[n] is the slot whose event fires first, by
	// (time, sched, tie), among the leaves under node n, where node n's
	// children are 2n and 2n+1 and leaf len(keys)+i is slot i itself.
	// win[1] is the next event.
	keys []uint64
	evs  []slotEv
	win  []int32
	idle []int32 // the empty slots, a stack
	// second is a lower bound on the key of every slot but win[1]: a
	// re-arm of win[1] below it is still the next event and leaves the
	// tree as it is. A replay that its own slot wins has seen the winner
	// of every other subtree and sets the bound exactly; any other can
	// only have added its own key to the losers.
	second uint64
	// held marks win[1] as the slot of an event that has already fired
	// and whose handler may still be running: the next push re-arms it
	// in place, and whatever reads the root first empties it (settle).
	// Nothing else enters the tree while it is set, so it stays win[1].
	held    bool
	pending int // scheduled and neither fired nor canceled

	// m, when non-nil, receives engine counters through the fixed
	// HEngine* handles (one branch per schedule/cancel/fire; see
	// internal/metrics). heapHW shadows the published slot high-water
	// so the steady state (slots in use at or below a seen count) costs
	// one integer compare instead of an arena access per schedule.
	m      *metrics.Arena
	heapHW int

	// Watchdog state (see watchdog.go): run budgets checked before each
	// fire, one branch per event when disarmed.
	wd        Watchdog
	wdArmed   bool
	wdFired   int64
	wdTripped string
	wdStart   time.Time
}

// SetMetrics attaches (or, with nil, detaches) the telemetry arena the
// engine counts into (fixed HEngine* handles). Counting costs one
// branch per Schedule, Cancel and fired event and never allocates.
func (s *Simulator) SetMetrics(a *metrics.Arena) { s.m = a }

// New returns a simulator starting at time 0.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// NextTime returns the fire time of the earliest pending event, or
// false when the queue is empty. Sharded execution uses it to
// fast-forward idle synchronization windows.
func (s *Simulator) NextTime() (float64, bool) {
	if !s.settle() {
		return 0, false
	}
	return math.Float64frombits(s.keys[s.win[1]]), true
}

// Schedule registers fn to run at absolute time t. Scheduling in the
// past (t < Now) or at NaN panics: either would silently reorder
// causality. Events scheduled for the same instant fire in scheduling
// order.
func (s *Simulator) Schedule(t float64, fn Handler) Event {
	if !(t >= s.now) {
		panic("event: scheduled in the past or at NaN")
	}
	return s.push(t, s.now, s.seq, fn)
}

// ScheduleStamped registers fn to run at absolute time t with an
// explicit (schedule time, tie) pair instead of the engine's own
// clock and sequence counter. It exists for conservative-parallel
// execution: a cross-shard packet injection carries the upstream
// shard's transmission instant as sched and a partition-independent
// tie (internal/shard sets the top tie bit, which no local sequence
// number reaches, so stamped events never collide with local ones),
// making the merge order of remote arrivals a pure function of the
// simulated history. Callers must guarantee tie uniqueness among
// stamped events at the same (t, sched); the engine only guarantees
// it for its own Schedule calls.
func (s *Simulator) ScheduleStamped(t, sched float64, tie uint64, fn Handler) Event {
	if !(t >= s.now) {
		panic("event: scheduled in the past or at NaN")
	}
	if !(sched <= t) {
		panic("event: stamped schedule time after fire time or NaN")
	}
	return s.push(t, sched, tie, fn)
}

func (s *Simulator) push(t, sched float64, tie uint64, fn Handler) Event {
	s.seq++
	s.pending++
	key := nodeKey(t)
	var slot int32
	rearm := s.held
	if rearm {
		s.held = false
		slot = s.win[1]
	} else {
		if len(s.idle) == 0 {
			s.grow()
		}
		last := len(s.idle) - 1
		slot = s.idle[last]
		s.idle = s.idle[:last]
	}
	ev := &s.evs[slot]
	ev.sched, ev.tie, ev.fn = sched, tie, fn
	s.keys[slot] = key
	// A re-arm below every other key is still the next event: every
	// match on its path stands as recorded.
	if !rearm || key >= s.second {
		s.replay(slot)
	}
	if s.m != nil {
		s.m.Inc(metrics.HEngineScheduled)
		if n := len(s.keys) - len(s.idle); n > s.heapHW {
			s.heapHW = n
			s.m.MaxUint(metrics.HEngineHeapHighWater, uint64(n))
		}
	}
	return Event{slot: slot, gen: ev.gen}
}

// After registers fn to run d seconds from now.
func (s *Simulator) After(d float64, fn Handler) Event {
	return s.Schedule(s.now+d, fn)
}

// Cancel prevents e from firing and takes it out of the event set at
// once. Canceling the zero Event, or an event that has already fired or
// been canceled, is a no-op, whatever event now holds its slot.
func (s *Simulator) Cancel(e Event) {
	// The test is inlined: the port's wake-up and the session's emitter
	// cancel their last handle whether or not it is still pending.
	if uint(e.slot) < uint(len(s.evs)) && s.evs[e.slot].gen == e.gen {
		s.cancel(e.slot)
	}
}

func (s *Simulator) cancel(slot int32) {
	s.evs[slot].gen += 2
	s.vacate(slot)
	s.pending--
	if s.m != nil {
		s.m.Inc(metrics.HEngineCanceled)
	}
}

// Step fires the earliest pending event. It reports false when no
// events remain.
func (s *Simulator) Step() bool { return s.step(math.Inf(1)) }

// step fires the earliest pending event if it is due at or before
// limit; it is the one loop body under Step and the Run family. The
// fired event keeps its slot, held, while the handler runs. The clock
// is read back from the key, so an event scheduled at -0 fires at +0.
func (s *Simulator) step(limit float64) bool {
	if s.wdTripped != "" || !s.settle() {
		return false
	}
	slot := s.win[1]
	t := math.Float64frombits(s.keys[slot])
	if t > limit {
		return false
	}
	if s.wdArmed {
		// A trip leaves the event where it is, so a caller that re-arms
		// the watchdog resumes in the same order.
		if s.wdTripped = s.checkWatchdog(t); s.wdTripped != "" {
			return false
		}
		s.wdFired++
	}
	s.now = t
	s.pending--
	ev := &s.evs[slot]
	ev.gen += 2
	fn := ev.fn
	s.held = true
	if s.m != nil {
		s.m.Inc(metrics.HEngineFired)
	}
	fn()
	s.dropHeld()
	return true
}

// dropHeld empties the held slot, if no push has re-armed it.
func (s *Simulator) dropHeld() {
	if s.held {
		s.held = false
		s.vacate(s.win[1])
	}
}

// settle empties the held slot of a fired event and reports whether a
// pending event is left at the root.
func (s *Simulator) settle() bool {
	s.dropHeld()
	return s.pending > 0
}

// run fires events due at or before limit until none is left or the
// watchdog trips, then moves the clock forward to clamp.
func (s *Simulator) run(limit, clamp float64) {
	for s.step(limit) {
	}
	if s.now < clamp {
		s.now = clamp
	}
}

// Run processes events in time order until the event queue is empty or
// the next event is strictly later than until. The clock is left at the
// time of the last fired event (or at until if no event fired after it,
// clamped forward only).
func (s *Simulator) Run(until float64) { s.run(until, until) }

// RunBefore processes events in time order while they fire strictly
// before until, then clamps the clock forward to until. It is the
// conservative-window primitive of sharded execution: a shard runs
// its local events up to (but excluding) the window boundary, so
// cross-shard injections scheduled exactly at the boundary are merged
// into the event set before any local event at that instant fires.
func (s *Simulator) RunBefore(until float64) {
	s.run(math.Nextafter(until, math.Inf(-1)), until)
}

// RunAll processes events until the queue is empty. It never moves the
// clock except by firing.
func (s *Simulator) RunAll() { s.run(math.Inf(1), math.Inf(-1)) }

// tieLess orders two events of one fire time by (schedule time, tie):
// scheduling order — the engine's determinism contract, extended so
// stamped cross-shard events merge at a partition-independent position
// (see the package comment).
func tieLess(a, b *slotEv) bool {
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	return a.tie < b.tie
}

// beats reports whether slot a wins a match against slot b: the earlier
// by (fire time, schedule time, tie), an empty slot losing to
// everything.
func (s *Simulator) beats(a, b int32) bool {
	ka, kb := s.keys[a], s.keys[b]
	if ka != kb {
		return ka < kb
	}
	return ka != freeKey && tieLess(&s.evs[a], &s.evs[b])
}

// lessMask is all ones when a < b and zero otherwise, without a branch:
// the borrow of a - b, negated.
func lessMask(a, b uint64) uint64 {
	_, borrow := bits.Sub64(a, b, 0)
	return -borrow
}

// replay re-runs the matches on the path from slot to the root after
// slot's key or event changed. At each node the winner so far meets the
// recorded winner of the other child; for distinct fire times the
// select is arithmetic (lessMask picks key and slot) because the
// outcome of a match is close to a coin flip, a mispredicted jump costs
// more than the whole level, and the compiler emits a jump for the
// plain `if ck < wk { w, wk = c, ck }`. Equal fire times alone branch,
// to read the events.
func (s *Simulator) replay(slot int32) {
	keys, win := s.keys, s.win
	w, wk := slot, keys[slot]
	least := freeKey // of the other children's winners
	for n := len(win)>>1 + int(slot); n > 1; n >>= 1 {
		c := win[n^1]
		ck := keys[c]
		if ck == wk {
			if s.beats(c, w) {
				w = c
			}
		} else {
			m := lessMask(ck, wk)
			wk ^= (wk ^ ck) & m
			w ^= (w ^ c) & int32(m)
		}
		least ^= (least ^ ck) & lessMask(ck, least)
		win[n>>1] = w
	}
	if w == slot {
		s.second = least
	} else if k := keys[slot]; k < s.second {
		s.second = k
	}
}

// vacate empties slot and replays its path.
func (s *Simulator) vacate(slot int32) {
	s.keys[slot], s.evs[slot].fn = freeKey, nil
	s.idle = append(s.idle, slot)
	s.replay(slot)
}

// grow doubles the slot arrays (from nothing to minSlots) and rebuilds
// the tree over them; it runs only when every slot is taken. No key
// changes, so the root's slot and second stand.
func (s *Simulator) grow() {
	old := len(s.keys)
	n := max(2*old, minSlots)
	keys, evs, win := make([]uint64, n), make([]slotEv, n), make([]int32, 2*n)
	copy(keys, s.keys)
	copy(evs, s.evs)
	s.keys, s.evs, s.win = keys, evs, win
	s.idle = make([]int32, 0, n)
	for i := n - 1; i >= old; i-- {
		keys[i], evs[i].gen = freeKey, 1
		s.idle = append(s.idle, int32(i))
	}
	for i := range n {
		win[n+i] = int32(i)
	}
	for i := n - 1; i >= 1; i-- {
		win[i] = win[2*i]
		if s.beats(win[2*i+1], win[2*i]) {
			win[i] = win[2*i+1]
		}
	}
}
