// Package stats provides the measurement primitives used by the
// Leave-in-Time experiments: streaming min/max/jitter trackers,
// fixed-bin histograms with tail and CCDF extraction, time-weighted
// utilization counters, and buffer-occupancy trackers that reproduce
// the sampling convention of the paper's Figures 12-13.
package stats

// Tracker accumulates streaming summary statistics of a scalar series.
// The zero value is ready to use.
type Tracker struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records one observation.
func (t *Tracker) Add(x float64) {
	if t.n == 0 {
		t.min, t.max = x, x
	} else {
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
	}
	t.n++
	t.sum += x
}

// Count returns the number of observations.
func (t *Tracker) Count() int64 { return t.n }

// Min returns the smallest observation (0 if none).
func (t *Tracker) Min() float64 { return t.min }

// Max returns the largest observation (0 if none).
func (t *Tracker) Max() float64 { return t.max }

// Mean returns the arithmetic mean (0 if none).
func (t *Tracker) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Jitter returns Max - Min, the paper's definition of delay jitter
// (the maximum difference between the delays of any two packets).
func (t *Tracker) Jitter() float64 {
	if t.n == 0 {
		return 0
	}
	return t.max - t.min
}

// Histogram is a fixed-bin-width histogram over [0, BinWidth*len(bins)).
// Values beyond the last bin are counted in an overflow bucket but
// still contribute to the exact Tracker, so Max stays exact.
type Histogram struct {
	BinWidth float64
	bins     []int64
	overflow int64
	Tracker  Tracker
}

// NewHistogram returns a histogram with nbins bins of width binWidth.
func NewHistogram(binWidth float64, nbins int) *Histogram {
	if binWidth <= 0 || nbins <= 0 {
		panic("stats: NewHistogram requires positive binWidth and nbins")
	}
	return &Histogram{BinWidth: binWidth, bins: make([]int64, nbins)}
}

// Add records one observation. Negative values are clamped into bin 0
// (delays are nonnegative by construction; tiny negative values can
// only arise from floating-point cancellation).
func (h *Histogram) Add(x float64) {
	h.Tracker.Add(x)
	if x < 0 {
		x = 0
	}
	i := int(x / h.BinWidth)
	if i >= len(h.bins) {
		h.overflow++
		return
	}
	h.bins[i]++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.Tracker.Count() }

// BinCount returns the count in bin i (values in [i*w, (i+1)*w)).
func (h *Histogram) BinCount(i int) int64 { return h.bins[i] }

// NumBins returns the number of regular bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// CCDF returns the empirical complementary CDF P(X > x) evaluated at
// the bin upper edges: point i is (x=(i+1)*w, P(X > x)). Useful for
// log-scale tail plots as in the paper's Figures 9-11.
func (h *Histogram) CCDF() []CCDFPoint {
	n := h.Count()
	pts := make([]CCDFPoint, 0, len(h.bins))
	if n == 0 {
		return pts
	}
	above := n
	for i, c := range h.bins {
		above -= c
		pts = append(pts, CCDFPoint{X: float64(i+1) * h.BinWidth, P: float64(above) / float64(n)})
	}
	return pts
}

// TailProb returns the empirical P(X > x). Values of x inside a bin
// are rounded down to the bin lower edge, which makes the estimate an
// upper bound on the true empirical tail.
func (h *Histogram) TailProb(x float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if x < 0 {
		return 1
	}
	i := int(x / h.BinWidth)
	if i >= len(h.bins) {
		// Only the overflow bucket may exceed x; be conservative.
		return float64(h.overflow) / float64(n)
	}
	var above int64 = h.overflow
	for j := i; j < len(h.bins); j++ {
		above += h.bins[j]
	}
	return float64(above) / float64(n)
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	X float64 // threshold
	P float64 // P(value > X)
}

// Utilization measures the busy fraction of a server over simulated
// time. Call SetBusy on every busy/idle transition and Finish at the
// end of the run.
type Utilization struct {
	busySince float64
	busy      bool
	total     float64
	started   float64
	begun     bool
}

// Start marks the beginning of the measurement interval.
func (u *Utilization) Start(now float64) {
	u.started = now
	u.begun = true
}

// SetBusy records a busy/idle transition at time now.
func (u *Utilization) SetBusy(now float64, busy bool) {
	if !u.begun {
		u.Start(now)
	}
	if busy == u.busy {
		return
	}
	if u.busy {
		u.total += now - u.busySince
	} else {
		u.busySince = now
	}
	u.busy = busy
}

// Value returns the busy fraction over [start, now].
func (u *Utilization) Value(now float64) float64 {
	total := u.total
	if u.busy {
		total += now - u.busySince
	}
	dur := now - u.started
	if dur <= 0 {
		return 0
	}
	return total / dur
}

// Discrete is a distribution over small nonnegative integers (e.g.
// buffer occupancy in packets). The zero value is ready to use.
type Discrete struct {
	counts []int64
	n      int64
	max    int
}

// Reserve preallocates count storage for values up to n-1, so that a
// recording loop whose support is known in advance (e.g. a buffer
// occupancy bounded by the admission-time buffer allocation) never
// grows the slice mid-run. Values beyond the reservation still work —
// Add extends the slice as before.
func (d *Discrete) Reserve(n int) {
	if n > cap(d.counts) {
		counts := make([]int64, len(d.counts), n)
		copy(counts, d.counts)
		d.counts = counts
	}
}

// Add records one observation of value k (k >= 0).
func (d *Discrete) Add(k int) {
	if k < 0 {
		panic("stats: Discrete.Add with negative value")
	}
	for k >= len(d.counts) {
		d.counts = append(d.counts, 0)
	}
	d.counts[k]++
	d.n++
	if k > d.max {
		d.max = k
	}
}

// Max returns the largest observed value.
func (d *Discrete) Max() int { return d.max }

// CDF returns the empirical P(X <= k).
func (d *Discrete) CDF(k int) float64 {
	if d.n == 0 {
		return 0
	}
	var cum int64
	for i := 0; i <= k && i < len(d.counts); i++ {
		cum += d.counts[i]
	}
	return float64(cum) / float64(d.n)
}

// Point is one (x, y) sample.
type Point struct{ X, Y float64 }
