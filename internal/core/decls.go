package core

import (
	"math"
	"unsafe"

	"leaveintime/internal/intern"
)

// decls is a port's table of interned declarations (internal/intern).
// Under rules 1.3 and 2.3 every call of one class and rate is declared
// the same d(L), and the admission and System memos hand every such
// call the same closure, so a port holding thousands of sessions holds
// a handful of entries.
type decls = intern.Table[declKey, decl]

// declKey is a declaration's identity: its closure's and its rate's
// bits.
type declKey struct {
	d    uintptr // closureID
	rate uint64
}

// decl is one interned declaration at a port: the d(L) of every
// session that reached the port holding the same closure and the same
// rate, with d at the last length any of them sent. The memo is shared
// exactly: d is a pure function of the length. The reserved rate is
// read from the key (declKey.rate), so the entry keeps it once.
type decl struct {
	d func(length float64) float64 // nil: d = L/r (VirtualClock)
	// lastLen starts as NaN, which equals no length, so the first
	// packet always computes d.
	lastLen, lastD float64
}

// delay is d at the length, for the entry's rate (bits/s).
func (e *decl) delay(length, rate float64) float64 {
	if length != e.lastLen {
		e.lastLen = length
		if e.d != nil {
			e.lastD = e.d(length)
		} else {
			// VirtualClock special case: d = L/r (AC procedure 1, one class).
			e.lastD = length / rate
		}
	}
	return e.lastD
}

// internDecl returns the entry of (d, rate) in t, counting one more
// session holding it. A released entry is zeroed, so its d can be
// collected. A fresh one is filled field by field: assigning a whole
// decl compiles to runtime.wbMove.
func internDecl(t *decls, d func(float64) float64, rate float64) uint32 {
	k := declKey{d: closureID(d), rate: math.Float64bits(rate)}
	i, fresh := t.Intern(k, uint64(k.d)^k.rate)
	if fresh {
		e := &t.At(i).Val
		e.d, e.lastLen = d, math.NaN()
	}
	return i
}

// closureID is a func value's identity: the address of the closure it
// points to (gc represents a func value as that one pointer), 0 for
// nil. It is the one use of unsafe in the program. The address is a
// sound key for as long as the entry keyed by it is live: the entry
// holds the func, so the closure cannot be collected and its address
// cannot be reused, and Go's heap never moves an object. Two equal
// declarations in two distinct closures get two entries, which is
// still exact; it only shares less.
func closureID(f func(float64) float64) uintptr {
	return *(*uintptr)(unsafe.Pointer(&f))
}
