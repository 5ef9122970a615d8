package admission

import (
	"math"
	"math/big"
)

// bookingOf is the entry key a session of the class, rate and L_MAX/C
// books.
func bookingOf(class int, rate, sigma float64) booking {
	return booking{rate: math.Float64bits(rate), sigma: math.Float64bits(sigma), class: class}
}

// booked returns the entry key id holds at p, ok false when id is not
// booked.
func (p *ClassController) booked(id int) (booking, bool) {
	if i := p.live.Get(id); i != nil {
		return p.books.At(*i).Key, true
	}
	return booking{}, false
}

// refController is the arithmetic ClassController replaced, kept as the
// tests' reference: it holds the member list and re-derives cumRate and
// cumSigma over it on every call. It sums with math/big, so its totals
// are the exact real sums rounded once — what the controller's running
// expansions must read back, whatever order sessions came and went in.
type refController struct {
	c       float64
	classes []Class
	proc    int
	members []refMember
}

// refMember is one live session as the reference books it.
type refMember struct {
	id, class   int
	rate, sigma float64
}

// bigSum is the correctly rounded sum of the terms: 2200 bits hold any
// sum of float64s exactly, and Float64 rounds to nearest even.
func bigSum(terms ...float64) float64 {
	sum := new(big.Float).SetPrec(2200)
	for _, x := range terms {
		sum.Add(sum, new(big.Float).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f
}

// cumRate is the reserved rate of the members in classes 1..m.
func (r *refController) cumRate(m int) float64 {
	var terms []float64
	for _, b := range r.members {
		if b.class <= m {
			terms = append(terms, b.rate)
		}
	}
	return bigSum(terms...)
}

// cumSigma is the sum of LMax/C over the members in classes 1..m, each
// quotient rounded as the controller rounds it.
func (r *refController) cumSigma(m int) float64 {
	var terms []float64
	for _, b := range r.members {
		if b.class <= m {
			terms = append(terms, b.sigma)
		}
	}
	return bigSum(terms...)
}

func (r *refController) has(id int) bool {
	for _, b := range r.members {
		if b.id == id {
			return true
		}
	}
	return false
}

// admit is Admit (a batch of one) and AdmitClass: dup reports an id
// already live or repeated in the batch; otherwise rej is the zero value
// on acceptance and the first failing test of the paper's rule loop on
// a refusal. Nothing stays booked unless the whole batch is accepted.
func (r *refController) admit(batch []SessionSpec, j int) (rej RejectError, dup bool) {
	standing := len(r.members)
	for _, spec := range batch {
		if r.has(spec.ID) {
			r.members = r.members[:standing]
			return RejectError{}, true
		}
		r.members = append(r.members, refMember{id: spec.ID, class: j, rate: spec.Rate, sigma: spec.LMax / r.c})
	}
	P := len(r.classes)
	for m := j; m <= P; m++ {
		cl := r.classes[m-1]
		if need := r.cumRate(m); need > cl.R+rateTol(cl.R) {
			rej = RejectError{Proc: r.proc, Rule: 1, Class: m, Need: need, Have: cl.R}
			break
		}
		if m < P || r.proc == 2 {
			if need := r.cumSigma(m); need > cl.Sigma+1e-12 {
				rej = RejectError{Proc: r.proc, Rule: 2, Class: m, Need: need, Have: cl.Sigma}
				break
			}
		}
	}
	if rej.Rule != 0 {
		r.members = r.members[:standing]
	}
	return rej, false
}

func (r *refController) remove(id int) bool {
	for i, b := range r.members {
		if b.id == id {
			r.members = append(r.members[:i], r.members[i+1:]...)
			return true
		}
	}
	return false
}

// room is what is left, in floating point, of class m's rate and sigma
// budgets with their tolerances: where the scripts aim a session to land
// it within ulps of a verdict's edge.
func (r *refController) room(m int) (rate, sigma float64) {
	cl := r.classes[m-1]
	return cl.R + rateTol(cl.R) - r.cumRate(m), cl.Sigma + 1e-12 - r.cumSigma(m)
}

func (r *refController) totalRate() float64 { return r.cumRate(len(r.classes)) }
