package sched

import (
	"errors"
	"fmt"
)

// EDDAdmission implements the deterministic schedulability test of
// Ferrari & Verma (JSAC 1990) for Delay-EDD / Jitter-EDD servers — the
// test the Leave-in-Time paper points to when it notes that EDD's
// looser coupling between reserved rate and delay bound must be paid
// for with "a schedulability test at connection establishment time".
//
// Each session declares (x_min, LMax) and requests a local delay bound
// d. The deterministic test admits the set when
//
//  1. the peak utilization sum LMax_j / (x_min_j * C) stays below 1, and
//  2. every session's d covers its own transmission plus one maximal
//     packet of every other session plus one non-preemption packet:
//     d_i >= LMax_i/C + sum_{j != i} LMax_j/C + LMaxNet/C.
//
// Condition 2 is the worst-case single-burst argument (every session's
// packet arrives simultaneously); it is sufficient, not necessary, like
// Ferrari & Verma's original.
type EDDAdmission struct {
	// C is the link capacity, bits/s.
	C float64
	// LMaxNet is the largest packet any traffic on the link may carry
	// (the non-preemption term).
	LMaxNet float64

	sessions map[int]eddSession
}

type eddSession struct {
	xMin float64
	lMax float64
	d    float64
}

// NewEDDAdmission returns an empty schedulability controller.
func NewEDDAdmission(c, lMaxNet float64) *EDDAdmission {
	if c <= 0 || lMaxNet <= 0 {
		panic("sched: EDDAdmission needs positive capacity and LMaxNet")
	}
	return &EDDAdmission{C: c, LMaxNet: lMaxNet, sessions: make(map[int]eddSession)}
}

// ErrNotSchedulable is wrapped by every rejection.
var ErrNotSchedulable = errors.New("sched: EDD set not schedulable")

// Admit tests the session (id, x_min, lMax, local delay d) against the
// currently admitted set and reserves on success.
func (a *EDDAdmission) Admit(id int, xMin, lMax, d float64) error {
	if xMin <= 0 || lMax <= 0 || d <= 0 {
		return fmt.Errorf("sched: EDD admission needs positive xMin, lMax, d")
	}
	if _, dup := a.sessions[id]; dup {
		return fmt.Errorf("sched: session %d already admitted", id)
	}
	cand := eddSession{xMin: xMin, lMax: lMax, d: d}
	// Condition 1: peak utilization.
	util := lMax / (xMin * a.C)
	for _, s := range a.sessions {
		util += s.lMax / (s.xMin * a.C)
	}
	if util >= 1 {
		return fmt.Errorf("%w: peak utilization %.3f >= 1", ErrNotSchedulable, util)
	}
	// Condition 2: every session's deadline covers the simultaneous
	// burst.
	var totalL float64 = lMax
	for _, s := range a.sessions {
		totalL += s.lMax
	}
	check := func(id int, s eddSession) error {
		need := totalL/a.C + a.LMaxNet/a.C
		if s.d < need {
			return fmt.Errorf("%w: session %d needs local delay >= %.6g s, has %.6g",
				ErrNotSchedulable, id, need, s.d)
		}
		return nil
	}
	if err := check(id, cand); err != nil {
		return err
	}
	for sid, s := range a.sessions {
		if err := check(sid, s); err != nil {
			return err
		}
	}
	a.sessions[id] = cand
	return nil
}
