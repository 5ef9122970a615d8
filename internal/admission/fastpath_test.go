package admission

import (
	"math/rand"
	"testing"
	"testing/quick"

	"leaveintime/internal/calculus"
	"leaveintime/internal/metrics"
)

func fastClasses(c float64) []Class {
	return []Class{
		{R: 0.3 * c, Sigma: 0.002},
		{R: 0.6 * c, Sigma: 0.006},
		{R: c, Sigma: 0.02},
	}
}

func randBatch(r *rand.Rand, c float64) []SessionSpec {
	n := 1 + r.Intn(6)
	batch := make([]SessionSpec, n)
	for i := range batch {
		l := 424 + float64(r.Intn(8))*424
		batch[i] = SessionSpec{
			ID:   1000 + i,
			Rate: c * (0.01 + 0.05*r.Float64()),
			LMax: l,
			LMin: l / 2,
		}
	}
	return batch
}

// TestAdmitClassMatchesSequential: the batch path accepts exactly when
// the sequential per-session path on a fresh controller accepts every
// member, and then with identical assignments. Random batches; the
// budget's last bit is TestBatchIsSequentialAtTheLastBit's.
func TestAdmitClassMatchesSequential(t *testing.T) {
	const c = 1.536e6
	check := func(seed int64, useProc2 bool) bool {
		r := rand.New(rand.NewSource(seed))
		batch := randBatch(r, c)
		j := 1 + r.Intn(3)
		opts := Options{PerPacket: r.Intn(2) == 0}

		type admitter interface {
			Admit(SessionSpec, int, Options) (Assignment, error)
			AdmitClass(*CurveGate, []SessionSpec, int, Options) ([]Assignment, bool)
		}
		var fast, seq admitter
		if useProc2 {
			f, _ := NewProcedure2(c, fastClasses(c))
			s, _ := NewProcedure2(c, fastClasses(c))
			fast, seq = f, s
		} else {
			f, _ := NewProcedure1(c, fastClasses(c))
			s, _ := NewProcedure1(c, fastClasses(c))
			fast, seq = f, s
		}

		got, ok := fast.AdmitClass(nil, batch, j, opts)
		seqAss := make([]Assignment, 0, len(batch))
		seqOK := true
		for _, spec := range batch {
			a, err := seq.Admit(spec, j, opts)
			if err != nil {
				seqOK = false
				break
			}
			seqAss = append(seqAss, a)
		}
		if ok && !seqOK {
			t.Logf("seed %d proc2=%v: fast path accepted what sequential rejects", seed, useProc2)
			return false
		}
		if !ok && seqOK {
			t.Logf("seed %d proc2=%v: fast path declined a sequentially admissible batch", seed, useProc2)
			return false
		}
		if !ok {
			return true
		}
		for i := range got {
			if got[i].DMax != seqAss[i].DMax || got[i].DMin != seqAss[i].DMin || got[i].Class != seqAss[i].Class {
				t.Logf("seed %d: assignment %d differs: %+v vs %+v", seed, i, got[i], seqAss[i])
				return false
			}
			if d1, d2 := got[i].D(batch[i].LMin), seqAss[i].D(batch[i].LMin); d1 != d2 {
				t.Logf("seed %d: D(LMin) differs: %g vs %g", seed, d1, d2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestAdmitClassDecline: overloading batches must be declined with the
// controller state untouched, and the per-session fallback must then
// behave exactly as if the batch attempt never happened. Every refusal,
// of a batch or of one Admit, counts one rejection, and an admitted
// batch counts each member it admits.
func TestAdmitClassDecline(t *testing.T) {
	const c = 1.536e6
	p, err := NewProcedure1(c, fastClasses(c))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	p.SetMetrics(reg.Arena())
	counted := func(step string, accepted, rejected int64) {
		t.Helper()
		want := metrics.ProcOutcome{Accepted: accepted, Rejected: rejected}
		if got := reg.AdmissionCounters().AC1; got != want {
			t.Fatalf("%s: counters %+v, want %+v", step, got, want)
		}
	}
	// Class 1 holds 0.3*C: three sessions at 0.2*C cannot batch in.
	batch := []SessionSpec{
		{ID: 1, Rate: 0.2 * c, LMax: 424, LMin: 424},
		{ID: 2, Rate: 0.2 * c, LMax: 424, LMin: 424},
		{ID: 3, Rate: 0.2 * c, LMax: 424, LMin: 424},
	}
	if _, ok := p.AdmitClass(nil, batch, 1, Options{}); ok {
		t.Fatal("overloaded batch accepted")
	}
	if p.TotalRate() != 0 {
		t.Fatalf("decline leaked state: total rate %g", p.TotalRate())
	}
	counted("declined batch", 0, 1)
	// Fallback admits the prefix that fits.
	okCount := 0
	for _, spec := range batch {
		if _, err := p.Admit(spec, 1, Options{}); err == nil {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("fallback admitted %d of 3, want 1 (0.2C each into a 0.3C class)", okCount)
	}
	counted("fallback", 1, 3)
	// Empty batches and bad classes decline without panicking.
	if _, ok := p.AdmitClass(nil, nil, 1, Options{}); ok {
		t.Fatal("empty batch accepted")
	}
	if _, ok := p.AdmitClass(nil, batch[:1], 9, Options{}); ok {
		t.Fatal("out-of-range class accepted")
	}
	counted("empty batch and bad class", 1, 5)
	if _, ok := p.AdmitClass(nil, batch[1:], 3, Options{}); !ok {
		t.Fatal("two 0.2C sessions refused by class 3")
	}
	counted("admitted batch", 3, 5)
}

// TestCurveGateBudget: the gate declines a batch whose analytic FIFO
// delay bound exceeds the budget even though the rate rules pass, and
// releases reservations on teardown.
func TestCurveGateBudget(t *testing.T) {
	const c = 1.536e6
	srv := calculus.FCFSServer{C: c, LMax: 424}
	p, err := NewProcedure2(c, fastClasses(c))
	if err != nil {
		t.Fatal(err)
	}
	// Budget just above the packetization floor: one small session
	// fits, a bursty follow-up does not.
	gate := NewCurveGate(srv, 0.005)
	small := []SessionSpec{{ID: 1, Rate: 0.05 * c, LMax: 424, LMin: 424}}
	if _, ok := p.AdmitClass(gate, small, 1, Options{}); !ok {
		t.Fatal("small session must pass the gate")
	}
	if d := gate.Delay(); d <= 0 || d > 0.005 {
		t.Fatalf("gate delay %g out of range", d)
	}
	// A batch of jumbo packets blows the sigma/C delay term long
	// before the rate rules object.
	jumbo := make([]SessionSpec, 20)
	for i := range jumbo {
		jumbo[i] = SessionSpec{ID: 10 + i, Rate: 0.001 * c, LMax: 424, LMin: 424}
	}
	if _, ok := p.AdmitClass(gate, jumbo, 2, Options{}); ok {
		t.Fatal("gate budget must decline the jumbo batch")
	}
	// Controller must be untouched by the gate's decline.
	if got := p.TotalRate(); got != small[0].Rate {
		t.Fatalf("gate decline leaked controller state: %g", got)
	}
	// Releasing the first session restores room for part of it.
	gate.Release(small[0].Rate, small[0].LMax)
	if _, ok := p.AdmitClass(gate, jumbo[:2], 2, Options{}); !ok {
		t.Fatal("after release a small batch must fit again")
	}
	// Unstable aggregate: stability-only gate still refuses rho >= C.
	open := NewCurveGate(srv, 0)
	if _, ok := open.Try(c, 424); ok {
		t.Fatal("stability-only gate accepted rho == C")
	}
}

// TestCurveGateBase: a multi-segment Base curve (peak-capped transit
// aggregate) participates in the gate's bound.
func TestCurveGateBase(t *testing.T) {
	const c = 1.536e6
	srv := calculus.FCFSServer{C: c, LMax: 424}
	gate := NewCurveGate(srv, 0)
	// Transit traffic already characterized upstream: burst 30000 bits
	// but entering through a 0.5C wire, so its short-timescale arrival
	// is capped.
	gate.Base = calculus.Min(
		calculus.MustCurve(0, calculus.Piece{X: 0, Slope: 0.5 * c}),
		calculus.TokenBucket(0.4*c, 30000),
	)
	dCapped, ok := gate.Try(0.1*c, 424)
	if !ok {
		t.Fatal("capped transit must be admissible")
	}
	gate.Base = calculus.TokenBucket(0.4*c, 30000)
	dFull, ok := gate.Try(0.1*c, 424)
	if !ok {
		t.Fatal("uncapped transit must be admissible")
	}
	if dCapped > dFull {
		t.Fatalf("peak cap must not worsen the bound: %g > %g", dCapped, dFull)
	}
}

// TestCurveGateAllocationFree pins the fast-path allocation property
// end to end through the admission layer.
func TestCurveGateAllocationFree(t *testing.T) {
	srv := calculus.FCFSServer{C: 1.536e6, LMax: 424}
	gate := NewCurveGate(srv, 0)
	gate.Try(1000, 424) // warm up
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := gate.Try(1000, 424); !ok {
			t.Fatal("try failed")
		}
	})
	if allocs != 0 {
		t.Errorf("gate.Try allocates %.1f per op, want 0", allocs)
	}
}
