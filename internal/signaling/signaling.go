// Package signaling simulates connection establishment and teardown in
// a Leave-in-Time network. The paper assumes a connection-oriented
// substrate — "a session's connection is established if the admission
// control tests are satisfied in all the nodes along the session's
// route" — and this package provides it: a SETUP message travels the
// route hop by hop, running the admission test at each node and
// accumulating the per-node service-parameter assignments; an ACCEPT
// travels back confirming the reservation, or a REJECT releases
// everything reserved so far. Signaling messages experience the same
// link propagation delays as data, plus a configurable per-node
// processing time, so establishment latency is part of the simulation.
//
// The exchange is fault-aware: when the LinkDown hook reports a link
// down at the instant a message would depart over it, the message is
// lost. A lost SETUP/ACCEPT/REJECT strands the reservations made so
// far (the source gets ErrSignalingLost and must tear the session down
// to reclaim them); a lost RELEASE leaves the unreached nodes
// established so a later Teardown can retry the remainder. Rejected
// SETUPs can optionally be retried with capped exponential backoff
// (Retry), and a Teardown racing an in-flight SETUP cancels it cleanly
// — every reservation the walk made is released exactly once.
package signaling

import (
	"errors"
	"fmt"

	"leaveintime/internal/admission"
	"leaveintime/internal/event"
)

// Node is one switching node on a signaling path.
type Node struct {
	Name string
	// Admit guards the node's outgoing link.
	Admit admission.Controller
	// Gamma is the propagation delay of the outgoing link, seconds
	// (SETUP to the next node and ACCEPT/REJECT back both pay it).
	Gamma float64
	// Processing is the admission-test processing time at this node.
	Processing float64
}

// Request describes a connection to establish.
type Request struct {
	Spec  admission.SessionSpec
	Class int
	Opts  admission.Options
}

// Result is the outcome of an establishment attempt.
type Result struct {
	// Accepted reports whether the connection was established.
	Accepted bool
	// Err carries the rejecting node's admission error, or
	// ErrSignalingLost / ErrCanceled (nil when accepted).
	Err error
	// RejectedAt is the index of the rejecting node (-1 when accepted
	// or when no node rejected).
	RejectedAt int
	// Assignments are the per-node service parameters (accepted only).
	Assignments []admission.Assignment
	// SetupLatency is the simulated time from request to the
	// source learning the outcome (round trip of SETUP + ACCEPT or
	// partial trip + REJECT).
	SetupLatency float64
	// Attempts counts SETUP attempts made (1 without retries).
	Attempts int
}

// Retry configures automatic re-SETUP after an admission rejection:
// attempt k (0-based) is re-sent after min(Base*2^k, Cap) seconds, a
// pure function of the attempt number, so retried establishments are
// as deterministic as single-shot ones. Signaling losses are not
// retried — the source has no timeout model; the harness decides what a
// lost message means.
type Retry struct {
	// Max is the number of retries after the first attempt.
	Max int
	// Base is the initial backoff delay in seconds.
	Base float64
	// Cap bounds the backoff delay; 0 means uncapped.
	Cap float64
}

// backoff returns the delay before re-sending attempt number `attempt`
// (0-based: the delay after the first rejection), clamped so huge
// attempt numbers cannot overflow the shift.
func (r *Retry) backoff(attempt int) float64 {
	if attempt > 62 {
		attempt = 62
	}
	d := r.Base * float64(uint64(1)<<uint(attempt))
	if r.Cap > 0 && d > r.Cap {
		d = r.Cap
	}
	return d
}

// Signaler establishes and tears down connections over a path of
// nodes, using simulated time for message propagation and processing.
type Signaler struct {
	Sim  *event.Simulator
	Path []*Node

	// Retry, when non-nil, re-sends rejected SETUPs with capped
	// exponential backoff.
	Retry *Retry

	// LinkDown, when non-nil, reports whether node i's outgoing link
	// is down at the current instant; a signaling message departing
	// over a down link is lost.
	LinkDown func(node int) bool
	// OnLost, when non-nil, observes every lost signaling message:
	// kind is "setup", "accept", "reject" or "release", node the index
	// whose outgoing link lost it.
	OnLost func(kind string, node, id int)

	established map[int][]int // session -> node indexes holding reservations
	setups      map[int]*setupState
}

// setupState tracks one in-flight establishment so a concurrent
// Teardown can cancel it instead of racing it.
type setupState struct{ canceled bool }

// New returns a signaler over the given path.
func New(sim *event.Simulator, path []*Node) *Signaler {
	if len(path) == 0 {
		panic("signaling: empty path")
	}
	return &Signaler{
		Sim: sim, Path: path,
		established: make(map[int][]int),
		setups:      make(map[int]*setupState),
	}
}

// ErrAlreadyEstablished is returned when a session id is reused before
// teardown (including while its SETUP is still in flight).
var ErrAlreadyEstablished = errors.New("signaling: session already established")

// ErrSignalingLost is returned when a SETUP, ACCEPT or REJECT message
// was lost to a link fault. Reservations made before the loss remain
// in place: call Teardown to reclaim them.
var ErrSignalingLost = errors.New("signaling: message lost to link fault")

// ErrCanceled is returned when Teardown canceled an in-flight SETUP.
// Every reservation the walk made has been (or is being) released.
var ErrCanceled = errors.New("signaling: establishment canceled by teardown")

func (s *Signaler) down(i int) bool { return s.LinkDown != nil && s.LinkDown(i) }

func (s *Signaler) noteLost(kind string, node, id int) {
	if s.OnLost != nil {
		s.OnLost(kind, node, id)
	}
}

// Establish runs the SETUP/ACCEPT exchange, invoking done (in simulated
// time) when the source learns the outcome. It returns immediately; the
// exchange plays out as simulator events.
func (s *Signaler) Establish(req Request, done func(Result)) {
	id := req.Spec.ID
	if _, ok := s.established[id]; ok {
		done(Result{Accepted: false, Err: ErrAlreadyEstablished, RejectedAt: -1})
		return
	}
	if _, ok := s.setups[id]; ok {
		done(Result{Accepted: false, Err: ErrAlreadyEstablished, RejectedAt: -1})
		return
	}
	st := &setupState{}
	s.setups[id] = st
	s.attempt(req, st, 0, s.Sim.Now(), done)
}

func (s *Signaler) attempt(req Request, st *setupState, attempt int, start float64, done func(Result)) {
	id := req.Spec.ID
	finish := func(r Result) {
		r.Attempts = attempt + 1
		r.SetupLatency = s.Sim.Now() - start
		delete(s.setups, id)
		done(r)
	}
	assigns := make([]admission.Assignment, 0, len(s.Path))
	var walk func(i int, t float64)
	walk = func(i int, t float64) {
		node := s.Path[i]
		s.Sim.Schedule(t+node.Processing, func() {
			if st.canceled {
				s.abortSetup(id)
				finish(Result{Accepted: false, Err: ErrCanceled, RejectedAt: -1})
				return
			}
			now := s.Sim.Now()
			a, err := node.Admit.Admit(req.Spec, req.Class, req.Opts)
			if err != nil {
				// REJECT travels back over links i-1 .. 0, releasing the
				// upstream reservations when it reaches the source.
				i, err := i, err
				s.backWalk("reject", id, i-1, func(lostAt int) {
					if lostAt >= 0 {
						// Reservations 0..i-1 remain; Teardown reclaims.
						finish(Result{Accepted: false, Err: ErrSignalingLost, RejectedAt: i})
						return
					}
					s.releaseUpTo(id, i)
					if s.Retry != nil && attempt < s.Retry.Max && !st.canceled {
						s.Sim.After(s.Retry.backoff(attempt), func() {
							if st.canceled {
								finish(Result{Accepted: false, Err: ErrCanceled, RejectedAt: -1})
								return
							}
							s.attempt(req, st, attempt+1, start, done)
						})
						return
					}
					finish(Result{Accepted: false, Err: err, RejectedAt: i})
				})
				return
			}
			assigns = append(assigns, a)
			s.established[id] = append(s.established[id], i)
			if i+1 < len(s.Path) {
				// SETUP departs over link i toward the next node.
				if s.down(i) {
					s.noteLost("setup", i, id)
					finish(Result{Accepted: false, Err: ErrSignalingLost, RejectedAt: -1})
					return
				}
				walk(i+1, now+node.Gamma)
				return
			}
			// ACCEPT travels back over every link.
			s.backWalk("accept", id, len(s.Path)-1, func(lostAt int) {
				if lostAt >= 0 {
					// All nodes hold reservations but the source never
					// learned; Teardown reclaims them.
					finish(Result{Accepted: false, Err: ErrSignalingLost, RejectedAt: -1})
					return
				}
				if st.canceled {
					finish(Result{Accepted: false, Err: ErrCanceled, RejectedAt: -1})
					return
				}
				finish(Result{Accepted: true, RejectedAt: -1, Assignments: assigns})
			})
		})
	}
	walk(0, s.Sim.Now())
}

// backWalk carries an ACCEPT or REJECT from node `from` back to the
// source, one link per event so each hop samples the link state at its
// own departure instant. done receives -1 on arrival at the source, or
// the index of the link that lost the message.
func (s *Signaler) backWalk(kind string, id, from int, done func(lostAt int)) {
	var hop func(j int)
	hop = func(j int) {
		if j < 0 {
			done(-1)
			return
		}
		if s.down(j) {
			s.noteLost(kind, j, id)
			done(j)
			return
		}
		s.Sim.After(s.Path[j].Gamma, func() { hop(j - 1) })
	}
	hop(from)
}

// abortSetup releases whatever a canceled SETUP walk still holds. A
// Teardown that canceled the walk has already released (and deleted)
// the reservations it saw; this sweeps any the walk added afterwards.
func (s *Signaler) abortSetup(id int) {
	for _, i := range s.established[id] {
		s.Path[i].Admit.Remove(id)
	}
	delete(s.established, id)
}

// releaseUpTo frees reservations the SETUP made before being rejected.
func (s *Signaler) releaseUpTo(id, upTo int) {
	for _, i := range s.established[id] {
		if i < upTo {
			s.Path[i].Admit.Remove(id)
		}
	}
	delete(s.established, id)
}

// Adopt registers a connection that was established out of band (for
// example at scenario build time, before the simulator ran): the given
// node indexes are recorded as holding reservations, so a later
// Teardown releases them through the normal RELEASE walk. The
// reservations themselves must already exist at the nodes' admitters —
// Adopt records, it does not reserve. It fails if the session is
// already established or has a SETUP in flight.
func (s *Signaler) Adopt(id int, nodes []int) error {
	if _, ok := s.established[id]; ok {
		return ErrAlreadyEstablished
	}
	if _, ok := s.setups[id]; ok {
		return ErrAlreadyEstablished
	}
	for _, i := range nodes {
		if i < 0 || i >= len(s.Path) {
			return fmt.Errorf("signaling: adopt: node index %d outside path", i)
		}
	}
	s.established[id] = append([]int(nil), nodes...)
	return nil
}

// Teardown releases an established connection: a RELEASE message walks
// the reserved nodes in path order, freeing each reservation, and done
// (if non-nil) is invoked when the message has traversed the path. If
// the RELEASE is lost to a link fault mid-walk, the unreached nodes
// keep their reservations and remain registered, so a later Teardown
// retries the remainder; done is still invoked at the loss.
//
// Calling Teardown while the session's SETUP is in flight cancels the
// establishment: reservations made so far are released here, any made
// after this instant are released by the walk itself, and the
// establishment's done receives ErrCanceled.
func (s *Signaler) Teardown(id int, done func()) error {
	st := s.setups[id]
	if st != nil {
		st.canceled = true
	}
	nodes, ok := s.established[id]
	if !ok {
		if st != nil {
			// In-flight SETUP with nothing reserved yet: the canceled
			// walk cleans up after itself.
			if done != nil {
				s.Sim.Schedule(s.Sim.Now(), done)
			}
			return nil
		}
		return fmt.Errorf("signaling: session %d not established", id)
	}
	delete(s.established, id)
	remaining := append([]int(nil), nodes...)
	var hop func(k int, t float64)
	hop = func(k int, t float64) {
		if k >= len(remaining) {
			if done != nil {
				s.Sim.Schedule(t, done)
			}
			return
		}
		i := remaining[k]
		node := s.Path[i]
		s.Sim.Schedule(t+node.Processing, func() {
			node.Admit.Remove(id)
			if k+1 >= len(remaining) {
				hop(k+1, s.Sim.Now()+node.Gamma)
				return
			}
			// RELEASE departs over link i toward the next reserved node.
			if s.down(i) {
				s.noteLost("release", i, id)
				rest := append([]int(nil), remaining[k+1:]...)
				s.established[id] = rest
				if done != nil {
					s.Sim.Schedule(s.Sim.Now(), done)
				}
				return
			}
			hop(k+1, s.Sim.Now()+node.Gamma)
		})
	}
	hop(0, s.Sim.Now())
	return nil
}

// Established reports whether the session currently holds reservations.
func (s *Signaler) Established(id int) bool {
	_, ok := s.established[id]
	return ok
}
