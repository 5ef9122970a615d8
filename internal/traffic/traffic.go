// Package traffic implements the traffic source models of Section 3 of
// the Leave-in-Time paper: ON-OFF (two-state Markov-modulated),
// Poisson, and Deterministic (fixed packet rate) sources, plus a
// token-bucket shaper and a greedy source used in tests and stress
// experiments.
//
// A Source is a pull-based generator: each call to Next returns the
// gap (seconds) between the previous packet's emission and the next
// one, together with the next packet's length in bits. The network
// layer turns this stream into arrival events at the session's first
// server node.
package traffic

import (
	"leaveintime/internal/analytic"
	"leaveintime/internal/rng"
)

// Source generates a session's packet stream.
type Source interface {
	// Next returns the emission gap from the previous packet (for the
	// first packet: from the session start time) and the packet length
	// in bits. Implementations must return gap >= 0 and length > 0.
	Next() (gap, length float64)
}

// Deterministic emits fixed-length packets at a constant interval — the
// paper's fixed packet rate source (a_D = 13.25 ms, 424 bits in the
// Figure 11 cross traffic).
type Deterministic struct {
	Interval float64 // constant interarrival, s
	Length   float64 // packet length, bits
}

// Next implements Source.
func (d *Deterministic) Next() (float64, float64) { return d.Interval, d.Length }

// Poisson emits fixed-length packets with exponentially distributed
// interarrival times of mean Mean (the paper's a_P).
type Poisson struct {
	Mean   float64 // mean interarrival a_P, s
	Length float64 // packet length, bits
	Rng    *rng.Rand
}

// Next implements Source.
func (p *Poisson) Next() (float64, float64) { return p.Rng.Exp(p.Mean), p.Length }

// OnOff is the paper's two-state Markov-modulated source. In the ON
// state it emits fixed-length packets at fixed intervals T; the number
// of packets per ON period is geometric with mean MeanOn/T; the OFF
// period is exponential with mean MeanOff. With MeanOff = 0 the source
// degenerates to a Deterministic source of interval T, matching the
// paper's remark that fixed packet rate sources have a_OFF = 0.
//
// The source starts at the beginning of an ON period, so the first
// packet is emitted after one interval T.
type OnOff struct {
	T       float64 // packet spacing in ON state, s
	Length  float64 // packet length, bits
	MeanOn  float64 // mean ON duration a_ON, s
	MeanOff float64 // mean OFF duration a_OFF, s
	Rng     *rng.Rand

	remaining int64 // packets left in the current ON burst
	started   bool
}

// Next implements Source.
func (o *OnOff) Next() (float64, float64) {
	if !o.started {
		o.started = true
		o.remaining = o.burstLen()
	}
	if o.remaining > 0 {
		o.remaining--
		return o.T, o.Length
	}
	// Burst exhausted: draw the OFF period, then begin a new burst.
	// The gap to the first packet of the new burst is one spacing T
	// plus the OFF duration, so MeanOff = 0 reproduces a fixed-rate
	// source exactly.
	gap := o.T
	if o.MeanOff > 0 {
		gap += o.Rng.Exp(o.MeanOff)
	}
	o.remaining = o.burstLen() - 1
	return gap, o.Length
}

func (o *OnOff) burstLen() int64 {
	mean := o.MeanOn / o.T
	if mean < 1 {
		mean = 1
	}
	return o.Rng.Geometric(mean)
}

// Greedy emits packets back to back at the given rate (each gap equals
// the transmission time of the previous packet at that rate). It
// models a source that keeps its reference server continuously busy
// and is used in saturation and property tests.
type Greedy struct {
	Rate   float64 // sustained rate, bits/s
	Length float64 // packet length, bits
}

// Next implements Source.
func (g *Greedy) Next() (float64, float64) { return g.Length / g.Rate, g.Length }

// Trace replays an explicit packet schedule; used by unit tests to
// drive disciplines with hand-constructed arrival patterns. Gaps[i]
// precedes packet i; Lengths[i] is its size. After the trace is
// exhausted, Next returns an effectively infinite gap.
type Trace struct {
	Gaps    []float64
	Lengths []float64
	i       int
}

// Next implements Source.
func (t *Trace) Next() (float64, float64) {
	if t.i >= len(t.Gaps) {
		return 1e18, 1 // effectively never
	}
	g, l := t.Gaps[t.i], t.Lengths[t.i]
	t.i++
	return g, l
}

// Shaped wraps a source with a token-bucket (r, b0) shaper: packets
// that would violate the bucket are delayed until they conform. The
// output stream therefore conforms to the bucket by construction, so
// eq. (14)'s D_ref_max = b0/r applies to the shaped session.
type Shaped struct {
	Src    Source
	Bucket *analytic.TokenBucket

	clock   float64 // emission time of the previous *shaped* packet
	pending float64 // absolute time the next unshaped packet wants out
}

// NewShaped returns src shaped to conform to (rate, b0).
func NewShaped(src Source, rate, b0 float64) *Shaped {
	return &Shaped{Src: src, Bucket: analytic.NewTokenBucket(rate, b0)}
}

// Next implements Source.
func (s *Shaped) Next() (float64, float64) {
	gap, length := s.Src.Next()
	want := s.pending + gap
	s.pending = want
	t := want
	if t < s.clock {
		t = s.clock // shaped stream stays ordered
	}
	t += s.Bucket.ConformanceDelay(t, length)
	s.Bucket.Take(t, length)
	out := t - s.clock
	if !(out >= 0) {
		out = 0
	}
	// First packet: gap is measured from the session start (clock 0).
	s.clock = t
	return out, length
}

// VariableLength wraps a source and replaces packet lengths using fn,
// which receives the packet index (1-based). It is used to exercise the
// variable-packet-length paths of the disciplines (rule 1.3 versus
// 1.3a) that the paper's fixed-424-bit experiments do not reach.
type VariableLength struct {
	Src Source
	Fn  func(i int64) float64
	i   int64
}

// Next implements Source.
func (v *VariableLength) Next() (float64, float64) {
	gap, _ := v.Src.Next()
	v.i++
	return gap, v.Fn(v.i)
}

// Video is a simple MPEG-like source: frames are emitted at a fixed
// FrameRate and packetized into fixed-size cells; frame sizes follow a
// repeating group-of-pictures pattern (one large I frame, then
// alternating P and B frames) with multiplicative jitter. It gives the
// experiments a realistic variable-burst, constant-period workload in
// between the ON-OFF voice model and raw Poisson.
type Video struct {
	// FrameRate is frames per second (e.g. 25).
	FrameRate float64
	// CellBits is the packetization unit (e.g. 424).
	CellBits float64
	// MeanFrameBits is the average frame size; I frames are IScale
	// times it, B frames BScale times it (defaults 3 and 0.4).
	MeanFrameBits  float64
	IScale, BScale float64
	// GOP is the group-of-pictures length in frames (default 12; the
	// first frame of each group is an I frame, even offsets are P,
	// odd are B).
	GOP int
	// Rng jitters frame sizes by +-30%; nil disables jitter.
	Rng *rng.Rand

	frame   int64
	backlog int64 // cells remaining in the current frame burst
}

// Next implements Source. Cells of one frame are emitted back to back
// (zero gap); the first cell of each frame waits for the frame period.
func (v *Video) Next() (float64, float64) {
	if v.backlog > 0 {
		v.backlog--
		return 0, v.CellBits
	}
	if v.FrameRate <= 0 || v.CellBits <= 0 || v.MeanFrameBits <= 0 {
		panic("traffic: Video needs positive FrameRate, CellBits, MeanFrameBits")
	}
	gop := v.GOP
	if gop <= 0 {
		gop = 12
	}
	iScale := v.IScale
	if iScale == 0 {
		iScale = 3
	}
	bScale := v.BScale
	if bScale == 0 {
		bScale = 0.4
	}
	bits := v.MeanFrameBits
	switch {
	case v.frame%int64(gop) == 0:
		bits *= iScale
	case v.frame%2 == 1:
		bits *= bScale
	}
	if v.Rng != nil {
		bits *= 0.7 + 0.6*v.Rng.Float64()
	}
	v.frame++
	cells := int64(bits / v.CellBits)
	if cells < 1 {
		cells = 1
	}
	v.backlog = cells - 1
	return 1 / v.FrameRate, v.CellBits
}

// MeanRate approximates the long-run rate in bits/s for the configured
// GOP pattern (ignoring jitter, which is mean-preserving).
func (v *Video) MeanRate() float64 {
	gop := v.GOP
	if gop <= 0 {
		gop = 12
	}
	iScale := v.IScale
	if iScale == 0 {
		iScale = 3
	}
	bScale := v.BScale
	if bScale == 0 {
		bScale = 0.4
	}
	var sum float64
	for f := 0; f < gop; f++ {
		switch {
		case f == 0:
			sum += iScale
		case f%2 == 1:
			sum += bScale
		default:
			sum++
		}
	}
	return sum / float64(gop) * v.MeanFrameBits * v.FrameRate
}
