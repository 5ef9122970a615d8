// Package trace provides packet-level event tracing for the simulator:
// every arrival, transmission, delivery and drop can be recorded,
// filtered, or reduced to per-hop delay statistics. Tracing is opt-in (a
// nil tracer costs one branch per event) and is used by the debugging
// CLI flags and by tests that assert on exact event sequences.
package trace

import (
	"fmt"
	"sort"

	"leaveintime/internal/stats"
)

// Kind classifies a packet event.
type Kind uint8

// The event kinds, in the order they occur at a node.
const (
	// Arrive: the packet's last bit arrived at a port.
	Arrive Kind = iota
	// TransmitStart: the port began transmitting the packet.
	TransmitStart
	// TransmitEnd: the packet's last bit left the port.
	TransmitEnd
	// Deliver: the packet reached its exit point (after the last
	// link's propagation delay).
	Deliver
	// Drop: the packet was discarded — at a port's buffer limit (the
	// Cause field is empty), by an injected link fault ("fault"), by a
	// mid-run session teardown purge ("purge"), on arrival for a
	// session the port no longer knows ("purged" — the registration
	// race of a teardown with packets still in flight), or as a lost
	// signaling message ("setup", "accept", "reject", "release"). A
	// buffer-limit or "purged" Drop is emitted instead of Arrive (the
	// port refused the packet); fault and purge Drops terminate packets
	// the port had already accepted. Either way a session's trace shows
	// exactly one terminal event per packet: Deliver or Drop.
	Drop
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Arrive:
		return "arrive"
	case TransmitStart:
		return "start"
	case TransmitEnd:
		return "end"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one traced packet event.
type Event struct {
	Time    float64
	Kind    Kind
	Port    string // empty for Deliver
	Session int
	Seq     int64
	Hop     int
	// Eligible and Deadline echo the packet's scheduling stamps at the
	// node (meaningful from TransmitStart on).
	Eligible float64
	Deadline float64
	// Cause qualifies Drop events: empty for buffer-limit drops,
	// "fault" for packets lost to an injected link fault, "purge" for
	// packets discarded by a mid-run session teardown, "purged" for
	// packets arriving at a port after their session's teardown, and
	// "setup"/"accept"/"reject"/"release" for signaling messages lost
	// on a faulted link (those carry Seq 0).
	Cause string
}

// Tracer consumes events. Implementations must be fast; they run
// inline with the simulation.
type Tracer interface {
	Trace(Event)
}

// Recorder appends events to memory, optionally capped.
type Recorder struct {
	// Cap limits the number of retained events (0 = unlimited). When
	// full, further events are counted but dropped.
	Cap     int
	Events  []Event
	Dropped int64
}

// Trace implements Tracer.
func (r *Recorder) Trace(e Event) {
	if r.Cap > 0 && len(r.Events) >= r.Cap {
		r.Dropped++
		return
	}
	r.Events = append(r.Events, e)
}

// CanonicalSort orders events by the simulated history they describe
// rather than by recording order: (Time, Session, Seq, Hop, Kind,
// Port, Cause). Kind order within one (time, session, seq, hop) tuple
// follows the causal sequence at a node (Arrive, TransmitStart,
// TransmitEnd, then a terminal Deliver or Drop). Two trace streams of
// the same simulated history — for example a serial run and a sharded
// run of the same seed, whose per-shard recorders interleave
// differently — become byte-identical after CanonicalSort.
func CanonicalSort(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		switch {
		case a.Time != b.Time:
			return a.Time < b.Time
		case a.Session != b.Session:
			return a.Session < b.Session
		case a.Seq != b.Seq:
			return a.Seq < b.Seq
		case a.Hop != b.Hop:
			return a.Hop < b.Hop
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Port != b.Port:
			return a.Port < b.Port
		default:
			return a.Cause < b.Cause
		}
	})
}

// PerHopDelay summarizes one hop's contribution to a session's delay.
type PerHopDelay struct {
	Port    string
	Hop     int
	Queue   stats.Tracker // arrival -> transmit start (regulator + queue)
	Transit stats.Tracker // arrival -> transmit end
}

// PerHopDelays reduces a session's trace to per-hop delay statistics,
// ordered by hop. It pairs each Arrive with the following
// TransmitStart/TransmitEnd of the same (seq, hop).
func (r *Recorder) PerHopDelays(session int) []PerHopDelay {
	type key struct {
		seq int64
		hop int
	}
	arr := make(map[key]float64)
	start := make(map[key]float64)
	hops := make(map[int]*PerHopDelay)
	for _, e := range r.Events {
		if e.Session != session {
			continue
		}
		k := key{e.Seq, e.Hop}
		switch e.Kind {
		case Arrive:
			arr[k] = e.Time
		case TransmitStart:
			start[k] = e.Time
		case TransmitEnd:
			a, ok := arr[k]
			if !ok {
				continue
			}
			h := hops[e.Hop]
			if h == nil {
				h = &PerHopDelay{Port: e.Port, Hop: e.Hop}
				hops[e.Hop] = h
			}
			if s, ok := start[k]; ok {
				h.Queue.Add(s - a)
			}
			h.Transit.Add(e.Time - a)
			delete(arr, k)
			delete(start, k)
		}
	}
	out := make([]PerHopDelay, 0, len(hops))
	for _, h := range hops {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hop < out[j].Hop })
	return out
}
