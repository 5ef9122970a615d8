package main

import "time"

// The host this benchmark was defined on is a 2-vCPU guest whose speed
// drifts by 10-25 % over minutes: a tandem op that takes 80 ms in one
// run takes 100 ms in the next, with CPU time moving with wall time, so
// it is not descheduling but slower execution (a busy sibling thread or
// neighbour). A median over a 20-second run does not see through drift
// that lasts longer than the run. What does is a fixed kernel timed
// beside every slice of ops: the drift moves the kernel and the ops by
// nearly the same factor (log-log slope 1.01 over a ten-minute series).
// Over ten runs on ten seeds the distance between the quartiles of the
// raw time per op was 7-14 % of the median on the five workloads, and of
// the normalised time 2-4 %.
//
// Every time the benchmark gates (set-up, op and CPU time, and the
// throughput that is their inverse) is therefore reported as it would
// read on a host where the kernel takes probeNominalMs: measured time x
// probeNominalMs / (the kernel's time beside that slice). The raw
// reading and the host factor are printed beside each row, and -json
// keeps every slice's raw readings.
//
// The kernel is frozen. Changing it, or probeNominalMs, rescales every
// time metric and breaks bench/history.jsonl.
const probeNominalMs = 8.0

type probeNode struct {
	next *probeNode
	v    [6]uint64
}

// probeRing is a 1 MB ring of nodes linked in a shuffled order, so a
// walk along it misses the first-level caches as a simulator's packets
// and sessions do. It is a global array, outside the heap, so that it
// is no part of live_heap_mb.
var probeRing [1 << 14]probeNode

func init() {
	const n = len(probeRing)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(12345)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		probeRing[perm[i]].next = &probeRing[perm[(i+1)%n]]
	}
}

var probeSink uint64

// hostProbe runs the kernel once and returns how long it took, in ms: an
// event loop in miniature, 180 000 pops and pushes on a 100-entry
// binary heap of float keys, each followed by one step along the ring.
func hostProbe() float64 {
	t0 := time.Now()
	var h [100]float64
	for i := range h {
		h[i] = float64(i)
	}
	x, p := uint64(99), &probeRing[0]
	for i := 0; i < 180000; i++ {
		// Replace the minimum with a later key and sift it down.
		x = x*6364136223846793005 + 1442695040888963407
		key := h[0] + float64(x>>40)/1e6
		j := 0
		for {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= key {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = key
		p = p.next
		p.v[i&3] += uint64(key)
	}
	probeSink += p.v[0]
	return float64(time.Since(t0)) / 1e6
}

// hostFactor turns the kernel's times on either side of a slice into
// the factor that slice's times are multiplied by.
func hostFactor(before, after float64) float64 { return 2 * probeNominalMs / (before + after) }
