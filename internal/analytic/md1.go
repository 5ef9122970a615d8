// Package analytic implements the closed-form queueing results the
// Leave-in-Time paper relies on: the M/D/1 waiting-time distribution
// (used for the analytical upper bounds of Figures 9-11), the
// fixed-rate reference-server recursion (eq. 1), and token-bucket
// traffic characterization (the (r, b0) filter of Section 2).
package analytic

import (
	"math"
	"math/big"
)

// MD1 is an M/D/1 queue: Poisson arrivals at rate Lambda (packets per
// second) served by a deterministic service time Service (seconds).
// For the Leave-in-Time reference server of a Poisson session, Service
// is L/r (packet length over reserved rate).
type MD1 struct {
	Lambda  float64 // arrival rate, 1/s
	Service float64 // deterministic service time, s
}

// Rho returns the utilization Lambda*Service.
func (q MD1) Rho() float64 { return q.Lambda * q.Service }

// WaitTail returns P(W > t) for the stationary waiting time W, one
// minus the classical Crommelin/Takács series
//
//	P(W <= t) = (1-rho) * sum_{k=0}^{floor(t/D)} [lambda(kD-t)]^k / k! * e^{-lambda(kD-t)}.
//
// The series alternates in sign and suffers catastrophic cancellation
// for t several service times deep — even the exponent arguments must
// carry extended precision — so the whole evaluation, the subtraction
// included, runs in 300-bit arithmetic and deep tails keep relative
// accuracy. It panics if rho >= 1 (no stationary regime).
func (q MD1) WaitTail(t float64) float64 {
	one := new(big.Float).SetPrec(md1Prec).SetInt64(1)
	one.Sub(one, q.waitSeries(t))
	v, _ := one.Float64()
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

const md1Prec = 300

// waitSeries evaluates the Crommelin sum in extended precision. The
// exponent arguments u_k = lambda*(t - k*D) are themselves formed in
// big.Float: rounding them to float64 first would inject ~1e-6 of
// absolute noise through the alternating cancellation.
func (q MD1) waitSeries(t float64) *big.Float {
	rho := q.Rho()
	if rho >= 1 {
		panic("analytic: MD1 waiting time requires rho < 1")
	}
	if t < 0 {
		return new(big.Float).SetPrec(md1Prec)
	}
	lambda := new(big.Float).SetPrec(md1Prec).SetFloat64(q.Lambda)
	bigD := new(big.Float).SetPrec(md1Prec).SetFloat64(q.Service)
	bigT := new(big.Float).SetPrec(md1Prec).SetFloat64(t)

	sum := new(big.Float).SetPrec(md1Prec)
	K := int(math.Floor(t / q.Service))
	u := new(big.Float).SetPrec(md1Prec)
	kd := new(big.Float).SetPrec(md1Prec)
	for k := 0; k <= K; k++ {
		// u = lambda * (t - k*D) >= 0.
		kd.Mul(bigD, new(big.Float).SetPrec(md1Prec).SetInt64(int64(k)))
		u.Sub(bigT, kd)
		u.Mul(u, lambda)
		if u.Sign() < 0 {
			u.SetInt64(0) // floating-point edge at t = K*D
		}
		term := bigExpBig(u)
		for j := 1; j <= k; j++ {
			term.Mul(term, u)
			term.Quo(term, new(big.Float).SetPrec(md1Prec).SetInt64(int64(j)))
		}
		if k%2 == 1 {
			term.Neg(term)
		}
		sum.Add(sum, term)
	}
	rhoBig := new(big.Float).SetPrec(md1Prec).SetFloat64(q.Lambda)
	rhoBig.Mul(rhoBig, new(big.Float).SetPrec(md1Prec).SetFloat64(q.Service))
	oneMinusRho := new(big.Float).SetPrec(md1Prec).SetInt64(1)
	oneMinusRho.Sub(oneMinusRho, rhoBig)
	sum.Mul(sum, oneMinusRho)
	return sum
}

// SojournTail returns P(W + Service > t): the tail of the total delay
// (waiting plus transmission) in the queue. This is the quantity the
// paper calls the delay of a packet in its reference server.
func (q MD1) SojournTail(t float64) float64 {
	return q.WaitTail(t - q.Service)
}

// bigExp returns e^u for a float64 u >= 0 (test hook; the series uses
// bigExpBig so exponent arguments keep extended precision end to end).
func bigExp(u float64, prec uint) *big.Float {
	return bigExpBig(new(big.Float).SetPrec(prec).SetFloat64(u))
}

// bigExpBig returns e^u for u >= 0 via the Taylor series after halving
// u into [0, 1) and squaring back. math/big has no Exp, so we supply
// one; the inputs here are modest (u < ~100) and 120 series terms leave
// the truncation error far below 300-bit precision.
func bigExpBig(u *big.Float) *big.Float {
	if u.Sign() < 0 {
		panic("analytic: bigExpBig requires u >= 0")
	}
	prec := u.Prec()
	x := new(big.Float).SetPrec(prec).Set(u)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	half := new(big.Float).SetPrec(prec).SetFloat64(0.5)
	halvings := 0
	for x.Cmp(one) >= 0 {
		x.Mul(x, half)
		halvings++
	}
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for k := 1; k <= 120; k++ {
		term.Mul(term, x)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(int64(k)))
		sum.Add(sum, term)
	}
	for i := 0; i < halvings; i++ {
		sum.Mul(sum, sum)
	}
	return sum
}
