package network

import (
	"fmt"

	"leaveintime/internal/metrics"
	"leaveintime/internal/packet"
)

// slabBits sizes the pool's slabs: 1<<slabBits Packet structs per slab.
// 64 keep what a run allocates close to the packets it has in flight (a
// voice tandem op takes two or three), and a slab's liveness bits fill
// one bitset word.
const slabBits = 6

// A slab fills at least one word of pktPool.live, so every slab owns
// whole words: a smaller slabBits makes this constant negative, which
// does not compile.
const _ uint = 1<<slabBits - 64

// pktPool is the per-Network packet arena. Packets live in fixed slabs
// of 64 structs — contiguous, never moved, never individually freed —
// and are addressed by index: Packet.PoolIndex is slab number in the
// high bits, slot within the slab in the low slabBits. The free list
// holds indices, not pointers, and debug-mode liveness is one bit per
// slot in a bitset rather than a map of pointers, so ownership checks
// are an indexed load instead of a hash probe.
//
// Ownership is explicit: a packet is taken exactly once per lifetime
// (Session.send, i.e. a source emission), flows through
// ports and disciplines by pointer, and is released exactly once — at
// the sink when it leaves the network, or at the port that drops it on
// a buffer overflow. Between release and the next take the slot sits on
// the free list; a long run recycles a working set bounded by the peak
// number of packets simultaneously inside the network.
//
// The pool is not safe for concurrent use; it inherits the simulator's
// single-threaded discipline (one pool per Network, one Network per
// simulator, sweep points own disjoint simulators).
type pktPool struct {
	slabs    [][]packet.Packet
	free     []int32 // indices of released slots
	taken    int64
	released int64

	// m, when non-nil, mirrors the ownership counters into the metrics
	// arena at the fixed HPool* handles (see Network.EnableMetrics),
	// folding PoolStats into the run's telemetry snapshot.
	m *metrics.Arena

	// debug, when set, tracks live slots in a bitset so a double release
	// (or a release of a packet the pool never issued) panics at the
	// faulty call site instead of silently corrupting the free list.
	debug bool
	live  []uint64 // one bit per slot, indexed by PoolIndex
}

// at returns the packet struct at pool index idx.
func (pp *pktPool) at(idx int32) *packet.Packet {
	return &pp.slabs[idx>>slabBits][idx&(1<<slabBits-1)]
}

// get takes a zeroed packet from the pool, growing by one slab when the
// free list is empty so allocations amortize to zero on the hot path.
func (pp *pktPool) get() *packet.Packet {
	if len(pp.free) == 0 {
		slab := make([]packet.Packet, 1<<slabBits)
		base := int32(len(pp.slabs)) << slabBits
		pp.slabs = append(pp.slabs, slab)
		for i := int32(1 << slabBits); i > 0; i-- {
			pp.free = append(pp.free, base+i-1)
		}
		pp.live = append(pp.live, make([]uint64, (1<<slabBits)/64)...)
	}
	n := len(pp.free) - 1
	idx := pp.free[n]
	pp.free = pp.free[:n]
	p := pp.at(idx)
	p.PoolIndex = idx
	pp.taken++
	if pp.m != nil {
		pp.m.Inc(metrics.HPoolTaken)
	}
	if pp.debug {
		pp.live[idx>>6] |= 1 << (uint(idx) & 63)
	}
	return p
}

// put releases a packet back to the pool. The caller must own the
// packet (have received it from get, directly or through the network)
// and must not touch it afterwards.
func (pp *pktPool) put(p *packet.Packet) {
	idx := p.PoolIndex
	if pp.debug {
		// The index must name a slot this pool issued, the slot must be
		// live, and p must be that slot — a stale PoolIndex on a foreign
		// or stack-allocated packet cannot pass the identity check.
		if uint32(idx) >= uint32(len(pp.slabs))<<slabBits ||
			pp.live[idx>>6]&(1<<(uint(idx)&63)) == 0 ||
			pp.at(idx) != p {
			panic(fmt.Sprintf("network: double release of packet (session %d, seq %d) or release of a packet not taken from this pool", p.Session, p.Seq))
		}
		pp.live[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	*p = packet.Packet{}
	p.PoolIndex = idx // the handle survives zeroing; it names the slot
	pp.released++
	if pp.m != nil {
		pp.m.Inc(metrics.HPoolReleased)
	}
	pp.free = append(pp.free, idx)
}

// PoolStats is a snapshot of the packet pool's ownership counters.
type PoolStats struct {
	// Taken counts packets handed out since the network was created.
	Taken int64
	// Released counts packets returned (delivered or dropped).
	Released int64
	// Live is Taken - Released: packets currently inside the network
	// (queued at a discipline, under transmission, or in flight on a
	// link). After a fully drained run it must be zero — the
	// pool-balance leak tests assert exactly that.
	Live int64
}

// PoolStats returns the network's packet-pool counters.
func (n *Network) PoolStats() PoolStats {
	return PoolStats{
		Taken:    n.pool.taken,
		Released: n.pool.released,
		Live:     n.pool.taken - n.pool.released,
	}
}

// SetPoolDebug enables (or disables) per-packet ownership tracking:
// with it on, releasing a packet twice panics instead of corrupting
// the free list. Debug mode costs two bitset operations and an identity
// check per packet lifetime — cheap enough for tests and conformance
// runs, off by default in measured runs.
func (n *Network) SetPoolDebug(on bool) { n.pool.debug = on }
