// Package admission implements the three Leave-in-Time admission
// control procedures of Section 2 of the paper, together with the
// service-commitment bound calculators (end-to-end delay, delay
// distribution shift, delay jitter, and buffer space).
//
// An admission procedure guards one Leave-in-Time server (one port):
// it decides whether a session may be established there and, if so,
// what per-packet service parameter d_{i,s} the session receives at
// that node. Lower d means lower end-to-end delay (eq. 12), and the
// procedures implement *delay shifting*: some sessions get d values
// below L/r at the expense of others that must accept larger ones.
package admission

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"leaveintime/internal/intern"
	"leaveintime/internal/metrics"
	"leaveintime/internal/sesstab"
)

// SessionSpec is what a session declares at connection establishment
// time: its reserved rate and its packet-length envelope. Leave-in-Time
// requires no further traffic characterization.
type SessionSpec struct {
	ID   int
	Rate float64 // reserved rate r_s, bits/s
	LMax float64 // maximum packet length, bits
	LMin float64 // minimum packet length, bits
}

// validate also keeps NaN and infinities out: a controller's running
// sums are exact only over finite terms. A negative id is refused here,
// not left for the id table to panic on.
func (s SessionSpec) validate() error {
	if s.ID < 0 {
		return fmt.Errorf("admission: session %d: id must be nonnegative", s.ID)
	}
	if !(s.Rate > 0) || math.IsInf(s.Rate, 1) {
		return fmt.Errorf("admission: session %d: rate must be positive", s.ID)
	}
	if !(s.LMin > 0 && s.LMin <= s.LMax) || math.IsInf(s.LMax, 1) {
		return fmt.Errorf("admission: session %d: need 0 < LMin <= LMax", s.ID)
	}
	return nil
}

// Class is one delay class of procedures 1 and 2: R is the maximum
// bandwidth assignable to sessions in this class and the classes below
// it, and Sigma is the class base delay (seconds). RFrac states R as a
// fraction of the link capacity instead, so one class list serves links
// of different capacities (R_P = C is RFrac 1); a controller resolves
// it against its own link when it is built.
type Class struct {
	R     float64
	Sigma float64
	RFrac float64
}

// Assignment is the outcome of admitting a session at one server: the
// per-packet service parameter d_{i,s}.
type Assignment struct {
	// D returns d_{i,s} for a packet of the given length (bits).
	D func(length float64) float64
	// DMax is max{d_{i,s}} over the session's packet lengths
	// (d_max_s at this node).
	DMax float64
	// DMin is min{d_{i,s}} over the session's packet lengths, used by
	// the alpha term of the bounds.
	DMin float64
	// Class is the delay class the session was admitted into
	// (1-based; 0 for procedure 3).
	Class int
}

// Alpha returns the session's alpha contribution at a final node with
// this assignment: max{d_i - L_i/r} over packet lengths (Section 2,
// following eq. 13). For the per-packet rules the extremum is at one of
// the length endpoints because d is affine in L.
func (a Assignment) Alpha(spec SessionSpec) float64 {
	lo := a.D(spec.LMin) - spec.LMin/spec.Rate
	hi := a.D(spec.LMax) - spec.LMax/spec.Rate
	return math.Max(lo, hi)
}

// ErrRejected is wrapped by every admission failure.
var ErrRejected = errors.New("admission rejected")

// RejectError is a refusal by procedure 1 or 2 with the numbers behind
// it: the rule that failed (1 is the cumulative rate test x.1, 2 the
// cumulative L_MAX/C test x.2), the class m it failed at, and the two
// sides of the failed inequality. Need is what classes 1..m would hold
// with the candidate added (bits/s, or seconds of L_MAX/C), correctly
// rounded from the exact sum; Have is the class's budget R_m or sigma_m.
// It wraps ErrRejected.
type RejectError struct {
	Proc, Rule, Class int
	Need, Have        float64
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("%v: rule %d.%d fails at class %d", ErrRejected, e.Proc, e.Rule, e.Class)
}

func (e *RejectError) Unwrap() error { return ErrRejected }

// Controller guards one Leave-in-Time server. It hides which of the
// paper's three procedures runs behind it: establishment code (the
// route walk of Establish, the signaling layer, a daemon's SETUP
// handler) admits, removes and reads the committed rate through this
// interface and never dispatches on the procedure.
type Controller interface {
	// Admit runs the node's admission test for the session and records
	// it on success; on failure the controller is unchanged. class is
	// the 1-based delay class of procedures 1 and 2; procedure 3 has no
	// classes and reads the session's fixed d from opts.D instead.
	Admit(spec SessionSpec, class int, opts Options) (Assignment, error)
	// Remove tears down a previously admitted session, freeing its
	// bandwidth and sigma budget. It reports whether the session was
	// found.
	Remove(id int) bool
	// TotalRate is the reserved rate committed at the server, summed
	// over the live set — exactly zero once every session is removed
	// (the no-reservation-leak check of the churn harness).
	TotalRate() float64
	// Check reports what the controller refuses about a request whatever
	// else is established there (a malformed declaration, a class out of
	// range, a missing d): the static part of Admit, which runs it before
	// the rule tests.
	Check(spec SessionSpec, class int, opts Options) error
	// SetMetrics attaches the controller's accept/reject counters to
	// its own procedure's block of the arena (HAdmissionAC1..3). The
	// controllers of one procedure, one per server, share that block.
	SetMetrics(a *metrics.Arena)
}

// New returns the controller of procedure proc (1, 2 or 3; 0 means 1)
// for a link of the given capacity. Procedure 3 takes no classes; for
// the class-based procedures see NewClassController.
func New(proc int, capacity float64, classes []Class) (Controller, error) {
	// Errors return an untyped nil: a nil pointer wrapped in a Controller
	// would compare unequal to nil.
	if proc == 3 {
		p, err := NewProcedure3(capacity)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	c, err := NewClassController(proc, capacity, classes)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewClassController returns the controller of procedure proc (1 or 2;
// 0 means 1) as its concrete type, for callers that also use the
// AdmitClass fast path. A nil class list selects procedure 1 with a
// single class covering the full link: the VirtualClock special case
// d = L/r, still enforcing the cumulative rate test (ineq. 18).
func NewClassController(proc int, capacity float64, classes []Class) (*ClassController, error) {
	switch proc {
	case 0:
		proc = 1
	case 1, 2:
	default:
		return nil, fmt.Errorf("admission: unsupported procedure %d", proc)
	}
	if classes == nil {
		proc, classes = 1, []Class{{R: capacity, Sigma: 1}}
	}
	return newClassController(proc, capacity, classes)
}

// ClassController implements admission control procedures 1 and 2.
// Classes are numbered 1..P, and class P must have R_P equal to the
// link capacity so the whole link can be committed. For every class m
// from the session's own class j up to P, both procedures test the
// cumulative rate of classes 1..m against R_m (rule x.1) and the
// cumulative LMax/C against sigma_m (rule x.2), and both grant a d
// affine in the packet length. They differ in two places:
//
//	procedure 1: rule 1.2 exempts class P, and
//	             d_{i,s} = L_i * R_j / (r_s * C) + sigma_{j-1} + eps;
//	procedure 2: rule 2.2 includes class P, and
//	             d_{i,s} = L_i * R_{j-1} / (r_s * C) + sigma_j + eps,
//
// with R_0 = sigma_0 = 0. Sessions in lower-numbered classes receive
// lower d values. In class 1 of procedure 2, d does not depend on L/r
// at all, which lets low-rate sessions obtain low delay (the paper's
// Figures 14-17 use this).
//
// The two cumulative tests are the controller's only arithmetic, and it
// holds their left sides instead of re-deriving them: sums[m-1] is the
// exact total over every live session in classes 1..m, so admitting,
// removing and batch-admitting cost O(P) whatever the number of standing
// sessions, and a total does not depend on the order sessions came and
// went in.
//
// The bookings are kept in an id table (internal/sesstab), so session
// ids follow its precondition: nonnegative (Check refuses a negative
// one), and issued in sequence or bounded where they enter the program,
// since the table spans the ids from the smallest live one to the
// largest. A booking is the 4-byte index of an interned entry: every
// call of one class, rate and L_MAX books the same floats.
type ClassController struct {
	C       float64
	Classes []Class

	proc int // 1 or 2
	sums []classSums
	last []grant // last[m-1] is class m's memo
	// live is each live session's entry in books, by id.
	live  sesstab.Table[uint32]
	books intern.Table[booking, struct{}]
	ma    *metrics.Arena
	mb    metrics.Handle
}

// booking is what one live session added to the sums of its class and
// of every class above it, by the floats' bits. sigma is L_MAX/C as
// rounded when it was admitted, so that Remove takes back the very
// floats admit put in.
type booking struct {
	rate, sigma uint64
	class       int // 1-based
}

// classSums are the left sides of rules x.1 and x.2 at one class m:
// reserved rate and L_MAX/C summed over classes 1..m.
type classSums struct{ rate, sigma exactSum }

// grant is a class's memo of one d(L): the request values d depends on
// besides the class constants, and the function built from them. A
// session of the same key shares the function, which captures only
// floats that never change. book is the entry most recently booked in
// the class.
type grant struct {
	key  grantKey
	d    func(float64) float64
	book uint32
}

// grantKey holds LMax only under rule 1.3a/2.3a, where d is fixed at
// d(LMax); under the per-packet rule LMax is an argument of d, not a
// constant of it.
type grantKey struct {
	rate, eps, lMax float64
	perPacket       bool
}

// Procedure1 and Procedure2 name the class-based controller after the
// procedure it was constructed for.
type (
	Procedure1 = ClassController
	Procedure2 = ClassController
)

// SetMetrics implements Controller.
func (p *ClassController) SetMetrics(a *metrics.Arena) {
	p.ma, p.mb = a, metrics.HAdmissionAC1
	if p.proc == 2 {
		p.mb = metrics.HAdmissionAC2
	}
}

// NewProcedure1 validates the class hierarchy (R and Sigma nondecreasing,
// R_P = C) and returns an empty procedure-1 controller.
func NewProcedure1(c float64, classes []Class) (*Procedure1, error) {
	return newClassController(1, c, classes)
}

// NewProcedure2 returns an empty procedure-2 controller.
func NewProcedure2(c float64, classes []Class) (*Procedure2, error) {
	return newClassController(2, c, classes)
}

func newClassController(proc int, c float64, classes []Class) (*ClassController, error) {
	if c <= 0 {
		return nil, errors.New("admission: capacity must be positive")
	}
	if len(classes) == 0 {
		return nil, errors.New("admission: at least one class required")
	}
	resolved := false
	for k, cl := range classes {
		if cl.RFrac == 0 {
			continue
		}
		if cl.R != 0 {
			return nil, fmt.Errorf("admission: class %d states both R and RFrac", k+1)
		}
		if !resolved {
			// On a copy: the caller's list serves links of other capacities.
			classes, resolved = append([]Class(nil), classes...), true
		}
		classes[k] = Class{R: cl.RFrac * c, Sigma: cl.Sigma}
	}
	for k := 1; k < len(classes); k++ {
		if classes[k].R < classes[k-1].R || classes[k].Sigma < classes[k-1].Sigma {
			return nil, fmt.Errorf("admission: class %d must have R and Sigma >= class %d", k+1, k)
		}
	}
	for k, cl := range classes {
		if cl.R <= 0 || cl.Sigma < 0 {
			return nil, fmt.Errorf("admission: class %d: R must be positive and Sigma nonnegative", k+1)
		}
	}
	if classes[len(classes)-1].R != c {
		return nil, errors.New("admission: R_P must equal the link capacity C")
	}
	return &ClassController{C: c, Classes: classes, proc: proc,
		sums: make([]classSums, len(classes)), last: make([]grant, len(classes))}, nil
}

// Options tune an admission request.
type Options struct {
	// Eps is the nonnegative constant eps_s added to d (rules 1.3/2.3).
	Eps float64
	// PerPacket selects rule 1.3/2.3 (d proportional to the individual
	// packet length). When false, rule 1.3a/2.3a is used and d is fixed
	// at the value for LMax.
	PerPacket bool
	// D is the fixed service parameter d_s (seconds) the session asks of
	// procedure 3, which takes nothing else from the options;
	// procedures 1 and 2 ignore it.
	D float64
}

// Check implements Controller: a malformed declaration, a class outside
// 1..P, an eps that is negative or not finite.
func (p *ClassController) Check(spec SessionSpec, class int, opts Options) error {
	if err := spec.validate(); err != nil {
		return err
	}
	return p.checkClass(class, opts)
}

// checkClass is the part of Check that admit runs once per batch.
func (p *ClassController) checkClass(class int, opts Options) error {
	if class < 1 || class > len(p.Classes) {
		return fmt.Errorf("admission: class %d out of range 1..%d", class, len(p.Classes))
	}
	if !(opts.Eps >= 0) || math.IsInf(opts.Eps, 1) {
		return errors.New("admission: eps must be nonnegative and finite")
	}
	return nil
}

// Admit attempts to admit the session into class j (1-based). On
// success the session is recorded and its Assignment returned; on
// failure the controller state is unchanged. A rule refusal is a
// *RejectError; admitting an id that is still live is a caller's bug and
// gets a plain error, not a capacity verdict.
func (p *ClassController) Admit(spec SessionSpec, j int, opts Options) (Assignment, error) {
	return p.AdmitGated(nil, spec, j, opts)
}

// AdmitGated is Admit with the curve gate, when not nil, judging after
// the rules, as AdmitClass judges a batch: a batch of one whose
// Assignment comes back by value. A refusal by the gate is ErrRejected.
func (p *ClassController) AdmitGated(gate *CurveGate, spec SessionSpec, j int, opts Options) (Assignment, error) {
	if err := p.admit(gate, []SessionSpec{spec}, j, opts, false); err != nil {
		return Assignment{}, err
	}
	return p.assignment(spec, j, opts), nil
}

// admit is the controller's one admission decision, for a batch of
// sessions into class j: Admit is a batch of one, Reserve's memo hit a
// batch of one whose declaration it has validated (valid), AdmitClass a
// batch with an optional curve gate. It checks the class and validates
// the members (unless valid), then enters each in the id table: a live
// id, or one repeated in the batch, refuses before any rule runs. It
// runs the rules on the class totals plus the batch's, then the gate,
// and only on acceptance adds the members to the sums. A refusal has
// written no sum. It counts one ProcRejected per refusal and one
// ProcAccepted per member admitted.
func (p *ClassController) admit(gate *CurveGate, batch []SessionSpec, j int, opts Options, valid bool) error {
	if err := p.checkClass(j, opts); err != nil {
		return p.refuse(err, nil)
	}
	if len(batch) == 0 {
		return p.refuse(errors.New("admission: empty batch"), nil)
	}
	for i := 0; i < len(batch) && !valid; i++ {
		if err := batch[i].validate(); err != nil {
			return p.refuse(err, nil)
		}
	}
	var cand classSums
	for i := range batch {
		s, ok := p.live.Insert(batch[i].ID, 0)
		if !ok {
			return p.refuse(errDuplicate(batch[i].ID), batch[:i])
		}
		rate, sigma := batch[i].Rate, batch[i].LMax/p.C
		*s = p.book(booking{rate: math.Float64bits(rate), sigma: math.Float64bits(sigma), class: j})
		if i == 0 {
			cand.rate.one(rate)
			cand.sigma.one(sigma)
		} else {
			cand.rate.add(rate)
			cand.sigma.add(sigma)
		}
	}
	if e := p.rules(j, &cand); e != nil {
		return p.refuse(e, batch)
	}
	if gate != nil {
		if _, ok := gate.Try(gateLoad(batch)); !ok {
			return p.refuse(ErrRejected, batch)
		}
		gate.Commit(gateLoad(batch))
	}
	for i := range batch {
		rate, sigma := batch[i].Rate, batch[i].LMax/p.C
		for m := j - 1; m < len(p.sums); m++ {
			p.sums[m].rate.add(rate)
			p.sums[m].sigma.add(sigma)
		}
	}
	if p.ma != nil {
		p.ma.AddUint(p.mb+metrics.ProcAccepted, uint64(len(batch)))
	}
	return nil
}

// book returns b's entry, counting one more session holding it. The
// class's last entry is reused without hashing while it holds b.
func (p *ClassController) book(b booking) uint32 {
	m := &p.last[b.class-1].book
	if !p.books.Reuse(*m, b) {
		*m, _ = p.books.Intern(b, b.rate^bits.RotateLeft64(b.sigma, 32)^uint64(b.class))
	}
	return *m
}

// refuse takes the members admit entered back out of the id table and
// releases their entries, which is all it has written for them, counts
// the refusal and returns it.
func (p *ClassController) refuse(err error, entered []SessionSpec) error {
	for i := range entered {
		if b, ok := p.live.Take(entered[i].ID); ok {
			p.books.Release(b)
		}
	}
	if p.ma != nil {
		p.ma.Inc(p.mb + metrics.ProcRejected)
	}
	return err
}

// rules runs the additive tests of a candidate for class j, one session
// or a batch, whose rates and L_MAX/C values add up to cand: for each
// class m from j up, the rate committed to classes 1..m plus the
// candidate's against R_m (rule x.1), then the same for L_MAX/C against
// sigma_m (rule x.2; procedure 1 exempts class P). Each side is the
// exact total read with one monotone rounding, so a set of sessions
// passes as a batch if and only if it passes one session at a time, in
// any order. It returns the refusal of the first test that fails, with
// the value it compared as Need, or nil.
func (p *ClassController) rules(j int, cand *classSums) *RejectError {
	P := len(p.Classes)
	for m := j; m <= P; m++ {
		cl, sum := &p.Classes[m-1], &p.sums[m-1]
		if need := sum.rate.plus(&cand.rate); need > cl.R+rateTol(cl.R) {
			return &RejectError{Proc: p.proc, Rule: 1, Class: m, Need: need, Have: cl.R}
		}
		if m < P || p.proc == 2 {
			if need := sum.sigma.plus(&cand.sigma); need > cl.Sigma+1e-12 {
				return &RejectError{Proc: p.proc, Rule: 2, Class: m, Need: need, Have: cl.Sigma}
			}
		}
	}
	return nil
}

// assignment applies rule 1.3 (R_j, sigma_{j-1}) or rule 2.3
// (R_{j-1}, sigma_j). A request with the key of class j's last grant
// gets that grant's d and reads DMax and DMin off it: the same function
// of the same four floats as a fresh one, so the same bits. The memo
// holds one key per class, so a run of mixed rates builds every grant
// afresh and never holds more memory.
func (p *ClassController) assignment(spec SessionSpec, j int, opts Options) Assignment {
	key := grantKey{rate: spec.Rate, eps: opts.Eps, perPacket: opts.PerPacket}
	if !opts.PerPacket {
		key.lMax = spec.LMax
	}
	g := &p.last[j-1]
	if g.d != nil && g.key == key {
		return Assignment{D: g.d, DMax: g.d(spec.LMax), DMin: g.d(spec.LMin), Class: j}
	}
	rIdx, sigmaIdx := j, j-1
	if p.proc == 2 {
		rIdx, sigmaIdx = j-1, j
	}
	var r, sigma float64 // R_0 = sigma_0 = 0
	if rIdx > 0 {
		r = p.Classes[rIdx-1].R
	}
	if sigmaIdx > 0 {
		sigma = p.Classes[sigmaIdx-1].Sigma
	}
	a := affineAssignment(spec, r, sigma, p.C, j, opts)
	// Field by field: `*g = grant{key, a.D}` compiles to a
	// write-barrier move that made every miss measurably slower.
	g.key, g.d = key, a.D
	return a
}

// Remove implements Controller.
func (p *ClassController) Remove(id int) bool {
	i, ok := p.live.Take(id)
	if !ok {
		return false
	}
	b := p.books.At(i).Key
	rate, sigma := math.Float64frombits(b.rate), math.Float64frombits(b.sigma)
	for m := b.class - 1; m < len(p.sums); m++ {
		p.sums[m].rate.sub(rate)
		p.sums[m].sigma.sub(sigma)
	}
	p.books.Release(i)
	return true
}

// TotalRate implements Controller.
func (p *ClassController) TotalRate() float64 { return p.sums[len(p.sums)-1].rate.value() }

// affineAssignment builds the affine-in-L service parameter
// d(L) = L*rCoeff/(r*C) + sigma + eps shared by rules 1.3/1.3a and
// 2.3/2.3a.
func affineAssignment(spec SessionSpec, rCoeff, sigma, c float64, class int, opts Options) Assignment {
	if opts.PerPacket {
		// The closure lives as long as the sessions granted it: it
		// captures four floats, not spec and opts whole.
		den, eps := spec.Rate*c, opts.Eps
		d := func(l float64) float64 { return l*rCoeff/den + sigma + eps }
		return Assignment{
			D:     d,
			DMax:  d(spec.LMax),
			DMin:  d(spec.LMin),
			Class: class,
		}
	}
	// Rule 1.3a / 2.3a: d fixed at the LMax value for every packet.
	fixed := spec.LMax*rCoeff/(spec.Rate*c) + sigma + opts.Eps
	return Assignment{
		D:     func(float64) float64 { return fixed },
		DMax:  fixed,
		DMin:  fixed,
		Class: class,
	}
}

// Procedure3 is admission control procedure 3: every session carries a
// fixed d_s of its own choosing, and inequality (19) is verified over
// every non-empty subset A of the sessions:
//
//	C >= (sum_A LMax_s) * (sum_A r_s) / (sum_A r_s * d_s).
//
// The test is exponential in the number of sessions (2^n - 1 subsets);
// procedure3MaxSessions caps n. The procedure may strand bandwidth: unlike
// procedures 1 and 2, nothing guarantees the full link capacity can be
// committed.
type Procedure3 struct {
	C float64

	specs []SessionSpec
	ds    []float64
	ma    *metrics.Arena
}

// procedure3MaxSessions caps the exponential subset test at about 1M
// subsets; Admit returns an error beyond it.
const procedure3MaxSessions = 20

// SetMetrics implements Controller.
func (p *Procedure3) SetMetrics(a *metrics.Arena) { p.ma = a }

// NewProcedure3 returns an empty procedure-3 controller.
func NewProcedure3(c float64) (*Procedure3, error) {
	if c <= 0 {
		return nil, errors.New("admission: capacity must be positive")
	}
	return &Procedure3{C: c}, nil
}

// Admit attempts to admit the session with the fixed service parameter
// opts.D (seconds); the class and the rest of the options are ignored.
// The subset test runs over the existing sessions plus the candidate.
func (p *Procedure3) Admit(spec SessionSpec, _ int, opts Options) (Assignment, error) {
	a, err := p.admit(spec, opts.D)
	if p.ma != nil {
		if err != nil {
			p.ma.Inc(metrics.HAdmissionAC3 + metrics.ProcRejected)
		} else {
			p.ma.Inc(metrics.HAdmissionAC3 + metrics.ProcAccepted)
		}
	}
	return a, err
}

// Check implements Controller: a malformed declaration or a missing d.
func (p *Procedure3) Check(spec SessionSpec, _ int, opts Options) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if !(opts.D > 0) || math.IsInf(opts.D, 1) {
		return errors.New("admission: d must be positive and finite")
	}
	return nil
}

func (p *Procedure3) admit(spec SessionSpec, d float64) (Assignment, error) {
	if err := p.Check(spec, 0, Options{D: d}); err != nil {
		return Assignment{}, err
	}
	for _, s := range p.specs {
		if s.ID == spec.ID {
			return Assignment{}, errDuplicate(spec.ID)
		}
	}
	if len(p.specs) >= procedure3MaxSessions {
		return Assignment{}, fmt.Errorf("%w: procedure 3 subset test capped at %d sessions", ErrRejected, procedure3MaxSessions)
	}
	// Common test (inequality 18).
	var rateSum float64
	for _, s := range p.specs {
		rateSum += s.Rate
	}
	if rateSum+spec.Rate > p.C+rateTol(p.C) {
		return Assignment{}, fmt.Errorf("%w: total reserved rate exceeds capacity", ErrRejected)
	}
	specs := append(append([]SessionSpec{}, p.specs...), spec)
	ds := append(append([]float64{}, p.ds...), d)
	if !subsetTest(p.C, specs, ds) {
		return Assignment{}, fmt.Errorf("%w: inequality (19) fails for some session subset", ErrRejected)
	}
	p.specs = specs
	p.ds = ds
	return Assignment{
		D:    func(float64) float64 { return d },
		DMax: d,
		DMin: d,
	}, nil
}

// TotalRate implements Controller.
func (p *Procedure3) TotalRate() float64 {
	var sum float64
	for _, s := range p.specs {
		sum += s.Rate
	}
	return sum
}

// Remove implements Controller.
func (p *Procedure3) Remove(id int) bool {
	for i, s := range p.specs {
		if s.ID == id {
			p.specs = append(p.specs[:i], p.specs[i+1:]...)
			p.ds = append(p.ds[:i], p.ds[i+1:]...)
			return true
		}
	}
	return false
}

// subsetTest verifies inequality (19) for every non-empty subset,
// enumerated by Gray code so each step updates the three running sums
// in O(1).
func subsetTest(c float64, specs []SessionSpec, ds []float64) bool {
	n := len(specs)
	var sumL, sumR, sumRD float64
	prev := uint64(0)
	for g := uint64(1); g < 1<<uint(n); g++ {
		gray := g ^ (g >> 1)
		diff := gray ^ prev
		prev = gray
		// Exactly one bit flips between consecutive Gray codes.
		i := bits.TrailingZeros64(diff)
		if gray&diff != 0 {
			sumL += specs[i].LMax
			sumR += specs[i].Rate
			sumRD += specs[i].Rate * ds[i]
		} else {
			sumL -= specs[i].LMax
			sumR -= specs[i].Rate
			sumRD -= specs[i].Rate * ds[i]
		}
		if sumRD <= 0 {
			return false
		}
		if c*sumRD < sumL*sumR-1e-9*sumL*sumR {
			return false
		}
	}
	return true
}

// errDuplicate refuses a second admission of a live id. It does not wrap
// ErrRejected: no rule was consulted.
func errDuplicate(id int) error {
	return fmt.Errorf("admission: session %d is already admitted", id)
}

// rateTol returns an absolute tolerance for rate comparisons so that
// configurations the paper books at exactly 100% of capacity (e.g. 48
// sessions of 32 kbit/s on a T1) are not rejected by floating-point
// crumbs.
func rateTol(r float64) float64 { return r * 1e-9 }
