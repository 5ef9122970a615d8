// Package event implements the deterministic discrete-event simulation
// engine underneath every experiment in this repository.
//
// The engine is a single-threaded event loop over a 4-ary min-heap of
// timestamped events. Ties in time are broken by scheduling order
// (a monotonically increasing sequence number), which makes every run
// bit-reproducible: the same inputs always produce the same event
// interleaving, independent of map iteration order or goroutine
// scheduling.
//
// # Performance model
//
// The engine is allocation-free in steady state. Event structs come
// from a per-simulator free list and return to it when they fire or
// when their cancellation is collected, so a long run recycles a small
// working set of structs instead of allocating one per occurrence.
// Cancellation is lazy: Cancel only marks the event and drops its
// handler; the struct stays in the heap until it surfaces at the root
// and is skipped. That keeps Cancel O(1) and avoids the sift-down of a
// mid-heap removal.
//
// The heap holds one node per event source, not per occurrence. The
// sources of a packet run re-arm themselves from inside their own
// handler — a port's transmission finish schedules the next finish, a
// traffic source its next emission, a link its next delivery — so the
// node of the event that is firing stays at the root while its handler
// runs (the hold) and the handler's first Schedule overwrites it in
// place and sifts it down once. A near-future re-arm settles a level or
// two below the root, where removing the root first would have paid a
// full-depth sift-down of the heap's last node and then a sift-up of
// the new one. A handler that schedules nothing has its node removed
// when it returns; anything that reads the root in between (NextTime, a
// nested Step) removes it first.
//
// Nodes are 16 bytes: the fire time inline and the Event pointer. A
// sift comparison reads the Event (for the schedule time and tie it
// already stores) only when two fire times are equal, and the least of
// four children with distinct times is found without a branch (see
// siftDown). Nodes carry no position write-back into the Event structs
// (lazy cancellation never needs an event's heap index). The heap is
// 4-ary, which halves the tree depth of a binary heap.
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
	"time"

	"leaveintime/internal/metrics"
)

// Handler is the action executed when an event fires.
type Handler func()

// Event states. A pooled Event cycles pending -> (canceled ->) free.
const (
	stateFree     uint8 = iota // in the free list, or fired
	statePending               // scheduled, will fire
	stateCanceled              // still in the heap, skipped on pop
)

// poolChunk is how many Event structs one free-list refill allocates.
const poolChunk = 64

// Event is a scheduled occurrence in simulated time. Events are created
// by Simulator.Schedule and may be canceled before they fire.
//
// Event structs are pooled: once an event has fired, the simulator may
// reuse its struct for a later Schedule call. Canceling an event after
// it has fired is a no-op only until its struct is reused — do not
// retain an *Event past the firing of its handler (clear the reference
// inside the handler, as a wake-up timer naturally does).
type Event struct {
	time  float64
	sched float64
	tie   uint64
	fn    Handler
	state uint8
}

// Time returns the simulated time at which the event fires (or would
// have fired, if canceled).
func (e *Event) Time() float64 { return e.time }

// evNode is one heap slot: the fire time inline plus the event it
// stands for, whose schedule time and tie are read only to order two
// nodes that fire at the same instant. The time is held as its IEEE bit
// pattern, which orders as an unsigned integer because no fire time is
// negative (the clock starts at 0 and Schedule refuses the past) once
// -0 is folded into +0 (nodeKey); integer compares are what siftDown's
// tournament needs to stay free of branches.
type evNode struct {
	key uint64
	e   *Event
}

func nodeKey(t float64) uint64 { return math.Float64bits(t + 0) }

// Simulator is a discrete-event simulator. The zero value is ready to
// use and starts at time 0.
type Simulator struct {
	now  float64
	seq  uint64
	heap []evNode // 4-ary min-heap ordered by (time, sched, tie)
	// held marks heap[0] as the node of an event that has already fired
	// and whose handler may still be running: the next push overwrites
	// it, and whatever reads the root first removes it (settle).
	held    bool
	free    []*Event // recycled Event structs
	pending int      // scheduled and not canceled
	stopped bool

	// m, when non-nil, receives engine counters through the fixed
	// HEngine* handles (one branch per schedule/cancel/fire; see
	// internal/metrics). heapHW shadows the published heap high-water
	// so the steady state (heap at or below a seen size) costs one
	// integer compare instead of an arena access per schedule.
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

// Pending returns the number of scheduled (non-canceled) events. It is
// a live counter, O(1).
func (s *Simulator) Pending() int { return s.pending }

// NextTime returns the fire time of the earliest pending event, or
// false when the queue is empty. Sharded execution uses it to
// fast-forward idle synchronization windows.
func (s *Simulator) NextTime() (float64, bool) {
	if !s.settle() {
		return 0, false
	}
	return s.heap[0].e.time, true
}

// Schedule registers fn to run at absolute time t. Scheduling in the
// past (t < Now) or at NaN panics: either would silently reorder
// causality. Events scheduled for the same instant fire in scheduling
// order.
func (s *Simulator) Schedule(t float64, fn Handler) *Event {
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
func (s *Simulator) ScheduleStamped(t, sched float64, tie uint64, fn Handler) *Event {
	if !(t >= s.now) {
		panic("event: scheduled in the past or at NaN")
	}
	if !(sched <= t) {
		panic("event: stamped schedule time after fire time or NaN")
	}
	return s.push(t, sched, tie, fn)
}

func (s *Simulator) push(t, sched float64, tie uint64, fn Handler) *Event {
	e := s.alloc()
	e.time = t
	e.sched = sched
	e.tie = tie
	e.fn = fn
	e.state = statePending
	s.seq++
	s.pending++
	if s.held {
		s.held = false
		s.heap[0] = evNode{key: nodeKey(t), e: e}
		s.siftDown(0)
	} else {
		s.heap = append(s.heap, evNode{key: nodeKey(t), e: e})
		s.siftUp(len(s.heap) - 1)
	}
	if s.m != nil {
		s.m.Inc(metrics.HEngineScheduled)
		if n := len(s.heap); n > s.heapHW {
			s.heapHW = n
			s.m.MaxUint(metrics.HEngineHeapHighWater, uint64(n))
		}
	}
	return e
}

// After registers fn to run d seconds from now.
func (s *Simulator) After(d float64, fn Handler) *Event {
	return s.Schedule(s.now+d, fn)
}

// Cancel prevents e from firing. Canceling an already-fired or
// already-canceled event is a no-op. Cancellation is lazy: the event
// stays in the heap (its handler already released) and is discarded
// when it reaches the root.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.state != statePending {
		return
	}
	e.state = stateCanceled
	e.fn = nil // release the closure now, not at pop time
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
// fired node stays at the root, held, while the handler runs.
func (s *Simulator) step(limit float64) bool {
	if s.wdTripped != "" || !s.settle() {
		return false
	}
	e := s.heap[0].e
	if e.time > limit {
		return false
	}
	if s.wdArmed {
		// A trip leaves the event where it is, so a caller that re-arms
		// the watchdog resumes in the same order.
		if s.wdTripped = s.checkWatchdog(e); s.wdTripped != "" {
			return false
		}
		s.wdFired++
	}
	s.now = e.time
	s.pending--
	fn := e.fn
	s.recycle(e)
	s.held = true
	if s.m != nil {
		s.m.Inc(metrics.HEngineFired)
	}
	fn()
	s.dropHeld()
	return true
}

// dropHeld removes the held node, if no push has taken its place.
func (s *Simulator) dropHeld() {
	if s.held {
		s.held = false
		s.heapPop()
	}
}

// settle clears dead nodes off the root — the held node of a fired
// event, then canceled events — and reports whether a pending event is
// left there.
func (s *Simulator) settle() bool {
	s.dropHeld()
	for len(s.heap) > 0 {
		e := s.heap[0].e
		if e.state != stateCanceled {
			return true
		}
		s.heapPop()
		s.recycle(e)
	}
	return false
}

// run fires events due at or before limit until none is left, Stop is
// called or the watchdog trips, then moves the clock forward to clamp.
func (s *Simulator) run(limit, clamp float64) {
	s.stopped = false
	for !s.stopped && s.step(limit) {
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
// into the heap before any local event at that instant fires.
func (s *Simulator) RunBefore(until float64) {
	s.run(math.Nextafter(until, math.Inf(-1)), until)
}

// RunAll processes events until the queue is empty. It never moves the
// clock except by firing.
func (s *Simulator) RunAll() { s.run(math.Inf(1), math.Inf(-1)) }

// Stop makes the current Run or RunAll return after the in-progress
// event handler completes. It may be called from inside a handler.
func (s *Simulator) Stop() { s.stopped = true }

// alloc takes an Event struct from the free list, refilling it with a
// chunk when empty so allocations amortize to zero on the hot path.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	chunk := make([]Event, poolChunk)
	for i := poolChunk - 1; i > 0; i-- {
		s.free = append(s.free, &chunk[i])
	}
	return &chunk[0]
}

func (s *Simulator) recycle(e *Event) {
	e.fn = nil
	e.state = stateFree
	s.free = append(s.free, e)
}

// nodeLess orders heap nodes by (fire time, schedule time, tie):
// earlier first, ties in scheduling order — the engine's determinism
// contract, extended so stamped cross-shard events merge at a
// partition-independent position (see the package comment).
func nodeLess(a, b evNode) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return tieLess(a.e, b.e)
}

func tieLess(a, b *Event) bool {
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	return a.tie < b.tie
}

// heapPop removes the root.
func (s *Simulator) heapPop() {
	h := s.heap
	last := len(h) - 1
	n := h[last]
	h[last] = evNode{}
	s.heap = h[:last]
	if last > 0 {
		s.heap[0] = n
		s.siftDown(0)
	}
}

func (s *Simulator) siftUp(i int) {
	h := s.heap
	n := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

// siftDown settles h[i] among its descendants. A level with four
// children of distinct fire times — the common case — is decided by a
// tournament on the integer keys, two independent compares then one:
// that compiles to conditional moves where a scan of the four is three
// branches the CPU cannot predict, and those mispredictions were most
// of what a sift cost. Any tie in time goes to the scan, which reads
// the events. (Kept in the loop body: as a function the tournament is
// not inlined, and the call costs a fifth of the gain.)
func (s *Simulator) siftDown(i int) {
	h := s.heap
	n := len(h)
	x := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var m int
		if c+4 <= n {
			ch := h[c : c+4 : c+4]
			k0, k1, k2, k3 := ch[0].key, ch[1].key, ch[2].key, ch[3].key
			a, ka := 0, k0
			if k1 < k0 {
				a, ka = 1, k1
			}
			b, kb := 2, k2
			if k3 < k2 {
				b, kb = 3, k3
			}
			if kb < ka {
				a = b
			}
			m = c + a
			if k0 == k1 || k2 == k3 || ka == kb {
				m = scanMin(h, c, c+4)
			}
		} else {
			m = scanMin(h, c, n)
		}
		if !nodeLess(h[m], x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// scanMin returns the index of the least node of h[c:end].
func scanMin(h []evNode, c, end int) int {
	m := c
	for j := c + 1; j < end; j++ {
		if nodeLess(h[j], h[m]) {
			m = j
		}
	}
	return m
}
