// Package packet defines the packet representation shared by every
// service discipline and network element in the simulator.
//
// Packet lengths are in bits and times in seconds, matching the units
// used throughout the Leave-in-Time paper (SIGCOMM '95). A packet
// carries the single header field the paper requires: the holding time
// A computed at the upstream node for sessions under delay jitter
// control (eq. 9), plus bookkeeping fields written by the discipline at
// the node currently holding the packet.
package packet

// Packet is one packet in flight. One struct travels all hops of its
// route by pointer. Packet structs are pooled per Network: taken from
// the free list when the source emits, released back (and zeroed) on
// delivery or drop, and reused by later emissions. Disciplines,
// tracers, and delivery/drop hooks must therefore not retain a *Packet
// past the callback that handed it to them — copy the fields instead.
type Packet struct {
	// PoolIndex is the packet's slot in its Network's slab pool — the
	// pool's handle, not simulation state. Disciplines must treat it as
	// opaque; the pool restores it after zeroing on release and uses it
	// for O(1) double-release detection in debug mode.
	PoolIndex int32

	// Session identifies the session (connection) the packet belongs to.
	Session int

	// Seq is the per-session packet number, starting at 1 as in the
	// paper's notation (packet i of session s).
	Seq int64

	// Length is the packet length L_{i,s} in bits.
	Length float64

	// SourceTime is the arrival time t^1_{i,s} of the packet at the
	// first server node of its route (the instant the source emitted
	// the last bit). End-to-end delay is measured from this instant.
	SourceTime float64

	// Hold is the holding time A^{n}_{i,s} carried in the packet header
	// from node n-1 to node n (eq. 9). It is zero at the first node
	// (eq. 8) and zero at every node for sessions without delay jitter
	// control.
	//
	// More generally it is the header's per-packet slack carrier: LSTF
	// reads it as remaining slack and writes back the residue on
	// transmission, and the UPS replay experiment seeds it at emission
	// via Session.SetInitialSlack — the same field serving priority
	// (LSTF) and holding (the LiT regulator) replay semantics.
	Hold float64

	// Hop is the index (0-based) of the node the packet currently
	// occupies along its route.
	Hop int

	// Eligible is the eligibility time E^n assigned at the current
	// node (eqs. 6-7).
	Eligible float64

	// Deadline is the transmission deadline F^n assigned at the current
	// node (eq. 10). Packets are served in increasing Deadline order.
	Deadline float64

	// Delay is the per-node service parameter d^n_{i,s} used in the
	// deadline computation at the current node, retained so the port
	// can compute the downstream holding time (eq. 9 needs d^{n-1}).
	Delay float64

	// DelayMax is d^{n}_{max,s} at the current node, the maximum d over
	// all packets of the session there, also needed by eq. 9.
	DelayMax float64
}
