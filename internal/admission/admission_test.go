package admission

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"leaveintime/internal/rng"
)

// The Section 2 worked example: C = 100 Mbit/s, classes (10 Mbit/s,
// 0.2 ms), (40 Mbit/s, 1.6 ms), (100 Mbit/s, 4 ms).
func workedClasses() (float64, []Class) {
	return 100e6, []Class{
		{R: 10e6, Sigma: 0.2e-3},
		{R: 40e6, Sigma: 1.6e-3},
		{R: 100e6, Sigma: 4e-3},
	}
}

func TestProcedure1WorkedExample(t *testing.T) {
	c, classes := workedClasses()
	spec := SessionSpec{ID: 1, Rate: 100e3, LMax: 400, LMin: 400}
	want := []float64{0.4e-3, 1.8e-3, 5.6e-3} // paper's values
	for j := 1; j <= 3; j++ {
		p, err := NewProcedure1(c, classes)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Admit(spec, j, Options{})
		if err != nil {
			t.Fatalf("class %d: %v", j, err)
		}
		if math.Abs(a.DMax-want[j-1]) > 1e-12 {
			t.Errorf("class %d: d = %v, want %v", j, a.DMax, want[j-1])
		}
		if a.Class != j {
			t.Errorf("class recorded as %d", a.Class)
		}
	}
}

func TestProcedure2WorkedExample(t *testing.T) {
	c, classes := workedClasses()
	spec := SessionSpec{ID: 1, Rate: 100e3, LMax: 400, LMin: 400}
	want := []float64{0.2e-3, 2.0e-3, 5.6e-3}
	for j := 1; j <= 3; j++ {
		p, err := NewProcedure2(c, classes)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Admit(spec, j, Options{})
		if err != nil {
			t.Fatalf("class %d: %v", j, err)
		}
		if math.Abs(a.DMax-want[j-1]) > 1e-12 {
			t.Errorf("class %d: d = %v, want %v", j, a.DMax, want[j-1])
		}
	}
}

func TestLowRateSessionContrast(t *testing.T) {
	// The paper's 10 kbit/s example: class 1 gives 4 ms under
	// procedure 1 but 0.2 ms under procedure 2.
	c, classes := workedClasses()
	spec := SessionSpec{ID: 1, Rate: 10e3, LMax: 400, LMin: 400}
	p1, _ := NewProcedure1(c, classes)
	a1, err := p1.Admit(spec, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.DMax-4e-3) > 1e-12 {
		t.Errorf("procedure 1: d = %v, want 4 ms", a1.DMax)
	}
	p2, _ := NewProcedure2(c, classes)
	a2, err := p2.Admit(spec, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a2.DMax-0.2e-3) > 1e-12 {
		t.Errorf("procedure 2: d = %v, want 0.2 ms", a2.DMax)
	}
}

func TestRule11RejectsOverbooking(t *testing.T) {
	c, classes := workedClasses()
	p, _ := NewProcedure1(c, classes)
	// Class 1 holds 10 Mbit/s; the 11th 1 Mbit/s session must fail.
	for i := 0; i < 10; i++ {
		if _, err := p.Admit(SessionSpec{ID: i, Rate: 1e6, LMax: 400, LMin: 400}, 1, Options{}); err != nil {
			t.Fatalf("session %d rejected: %v", i, err)
		}
	}
	_, err := p.Admit(SessionSpec{ID: 99, Rate: 1e6, LMax: 400, LMin: 400}, 1, Options{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("overbooked class accepted: %v", err)
	}
	// But class 2 still has room.
	if _, err := p.Admit(SessionSpec{ID: 100, Rate: 1e6, LMax: 400, LMin: 400}, 2, Options{}); err != nil {
		t.Fatalf("class 2 rejected: %v", err)
	}
}

func TestRule11CascadesUpward(t *testing.T) {
	// A class-1 admission must also respect higher classes' budgets:
	// fill class 2 to its cap, then class 1 must reject even though
	// class 1 itself has room.
	c := 100e6
	classes := []Class{{R: 10e6, Sigma: 1}, {R: 20e6, Sigma: 2}, {R: c, Sigma: 3}}
	p, _ := NewProcedure1(c, classes)
	if _, err := p.Admit(SessionSpec{ID: 1, Rate: 20e6, LMax: 400, LMin: 400}, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Admit(SessionSpec{ID: 2, Rate: 5e6, LMax: 400, LMin: 400}, 1, Options{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("cumulative test at class 2 not enforced: %v", err)
	}
}

func TestRule12SigmaBudget(t *testing.T) {
	// sigma_1 = 3 packets' worth of transmission time on a 1 Mbit/s
	// link; the 4th class-1 session must fail rule 1.2 at class 1
	// (checked via class 2 membership below it).
	c := 1e6
	classes := []Class{{R: 0.5e6, Sigma: 3 * 1000 / 1e6}, {R: c, Sigma: 1}}
	p, _ := NewProcedure1(c, classes)
	for i := 0; i < 3; i++ {
		if _, err := p.Admit(SessionSpec{ID: i, Rate: 1e3, LMax: 1000, LMin: 1000}, 1, Options{}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	_, err := p.Admit(SessionSpec{ID: 9, Rate: 1e3, LMax: 1000, LMin: 1000}, 1, Options{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("sigma budget not enforced: %v", err)
	}
}

func TestProcedure1ClassPSigmaExempt(t *testing.T) {
	// Procedure 1 does not apply the sigma test to class P, so a tiny
	// sigma_P cannot block admission...
	c := 1e6
	classes := []Class{{R: c, Sigma: 0}}
	p, err := NewProcedure1(c, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(SessionSpec{ID: 1, Rate: 1e3, LMax: 1000, LMin: 1000}, 1, Options{}); err != nil {
		t.Fatalf("procedure 1 enforced sigma on class P: %v", err)
	}
	// ...but procedure 2 does apply it (rule 2.2).
	p2, err := NewProcedure2(c, classes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p2.Admit(SessionSpec{ID: 1, Rate: 1e3, LMax: 1000, LMin: 1000}, 1, Options{})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("procedure 2 did not enforce rule 2.2 on class P: %v", err)
	}
}

func TestPerPacketVersusFixedRule(t *testing.T) {
	c, classes := workedClasses()
	spec := SessionSpec{ID: 1, Rate: 100e3, LMax: 400, LMin: 100}
	p, _ := NewProcedure1(c, classes)
	a, _ := p.Admit(spec, 1, Options{PerPacket: true})
	// Rule 1.3: d(L) affine in L; DMin < DMax.
	if a.D(100) >= a.D(400) {
		t.Errorf("per-packet d not increasing in L: %v vs %v", a.D(100), a.D(400))
	}
	if a.DMin >= a.DMax {
		t.Errorf("DMin %v >= DMax %v", a.DMin, a.DMax)
	}
	p2, _ := NewProcedure1(c, classes)
	b, _ := p2.Admit(SessionSpec{ID: 2, Rate: 100e3, LMax: 400, LMin: 100}, 1, Options{})
	// Rule 1.3a: constant d at the LMax value.
	if b.D(100) != b.D(400) || b.D(400) != b.DMax {
		t.Errorf("fixed rule not constant: %v %v %v", b.D(100), b.D(400), b.DMax)
	}
}

func TestEpsIncreasesD(t *testing.T) {
	c, classes := workedClasses()
	spec := SessionSpec{ID: 1, Rate: 100e3, LMax: 400, LMin: 400}
	p, _ := NewProcedure1(c, classes)
	a, _ := p.Admit(spec, 1, Options{Eps: 1e-3})
	if math.Abs(a.DMax-(0.4e-3+1e-3)) > 1e-12 {
		t.Errorf("eps not applied: %v", a.DMax)
	}
	if _, err := p.Admit(SessionSpec{ID: 2, Rate: 1e3, LMax: 400, LMin: 400}, 1, Options{Eps: -1}); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestRemoveFreesBudget(t *testing.T) {
	c, classes := workedClasses()
	p, _ := NewProcedure1(c, classes)
	if _, err := p.Admit(SessionSpec{ID: 1, Rate: 10e6, LMax: 400, LMin: 400}, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(SessionSpec{ID: 2, Rate: 1e6, LMax: 400, LMin: 400}, 1, Options{}); err == nil {
		t.Fatal("class 1 should be full")
	}
	if !p.Remove(1) {
		t.Fatal("Remove failed")
	}
	if p.Remove(1) {
		t.Fatal("double Remove succeeded")
	}
	if _, err := p.Admit(SessionSpec{ID: 2, Rate: 1e6, LMax: 400, LMin: 400}, 1, Options{}); err != nil {
		t.Fatalf("budget not freed: %v", err)
	}
}

func TestClassValidation(t *testing.T) {
	if _, err := NewProcedure1(1e6, nil); err == nil {
		t.Error("empty class list accepted")
	}
	if _, err := NewProcedure1(1e6, []Class{{R: 0.5e6, Sigma: 1}}); err == nil {
		t.Error("R_P != C accepted")
	}
	if _, err := NewProcedure1(1e6, []Class{{R: 0.9e6, Sigma: 2}, {R: 1e6, Sigma: 1}}); err == nil {
		t.Error("decreasing sigma accepted")
	}
	if _, err := NewProcedure1(1e6, []Class{{R: 1e6, Sigma: 1}, {R: 0.5e6, Sigma: 2}}); err == nil {
		t.Error("decreasing R accepted")
	}
}

func TestProcedure3SingleSession(t *testing.T) {
	// Inequality (19) with one session reduces to d >= LMax/C.
	p, err := NewProcedure3(1e6)
	if err != nil {
		t.Fatal(err)
	}
	spec := SessionSpec{ID: 1, Rate: 1e3, LMax: 1000, LMin: 1000}
	if _, err := p.Admit(spec, 0, Options{D: 1000.0 / 1e6}); err != nil {
		t.Fatalf("exactly feasible d rejected: %v", err)
	}
	p2, _ := NewProcedure3(1e6)
	if _, err := p2.Admit(spec, 0, Options{D: 0.5 * 1000.0 / 1e6}); !errors.Is(err, ErrRejected) {
		t.Fatalf("infeasible d accepted: %v", err)
	}
}

func TestProcedure3SubsetBinding(t *testing.T) {
	// Two sessions where each alone is feasible but the pair violates
	// inequality (19): C=1e6, both LMax=1000, r=1e3, d=1.2ms.
	// Singletons: C*r*d = 1e6*1e3*1.2e-3 = 1.2e6 >= LMax*r = 1e6. OK.
	// Pair: C*sum(rd) = 1e6*2.4 = 2.4e6... vs sumL*sumR = 2000*2000=4e6.
	// 2.4e6 < 4e6 -> reject.
	p, _ := NewProcedure3(1e6)
	spec := SessionSpec{ID: 1, Rate: 1e3, LMax: 1000, LMin: 1000}
	if _, err := p.Admit(spec, 0, Options{D: 1.2e-3}); err != nil {
		t.Fatalf("first session: %v", err)
	}
	spec.ID = 2
	if _, err := p.Admit(spec, 0, Options{D: 1.2e-3}); !errors.Is(err, ErrRejected) {
		t.Fatalf("pair subset not caught: %v", err)
	}
	// With a large enough d the pair fits: need C*sum(rd) >= 4e6 ->
	// sum(rd) >= 4 -> second d >= (4 - 1.2)/1e3 = 2.8e-3... but then
	// the first session's subset with the new one: recompute — admit
	// with 3e-3 and expect success.
	if _, err := p.Admit(spec, 0, Options{D: 3e-3}); err != nil {
		t.Fatalf("feasible pair rejected: %v", err)
	}
}

func TestProcedure3RateCap(t *testing.T) {
	p, _ := NewProcedure3(1e6)
	if _, err := p.Admit(SessionSpec{ID: 1, Rate: 2e6, LMax: 10, LMin: 10}, 0, Options{D: 1}); !errors.Is(err, ErrRejected) {
		t.Fatalf("rate above capacity accepted: %v", err)
	}
}

func TestProcedure3SessionCap(t *testing.T) {
	p, _ := NewProcedure3(1e9)
	spec := SessionSpec{Rate: 1, LMax: 10, LMin: 10}
	for i := 1; i <= procedure3MaxSessions; i++ {
		spec.ID = i
		if _, err := p.Admit(spec, 0, Options{D: 1}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	spec.ID = procedure3MaxSessions + 1
	if _, err := p.Admit(spec, 0, Options{D: 1}); !errors.Is(err, ErrRejected) {
		t.Fatalf("cap not enforced as a rejection: %v", err)
	}
	if !p.Remove(2) {
		t.Fatal("Remove")
	}
	if _, err := p.Admit(spec, 0, Options{D: 1}); err != nil {
		t.Fatalf("after Remove: %v", err)
	}
}

// TestProcedure3EquivalenceWithProcedure2: the paper notes procedure 2
// with one class and eps = 0 equals procedure 3 with identical d for
// all sessions. Check agreement on random instances.
func TestProcedure3EquivalenceWithProcedure2(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := 1e6
		n := 1 + r.Intn(6)
		lMax := 500 + float64(r.Intn(1000))
		// Procedure 2, one class: sigma_1 must cover n packets.
		d := lMax / c * (1 + 3*r.Float64()) // sometimes too small
		classes := []Class{{R: c, Sigma: d}}
		p2, err := NewProcedure2(c, classes)
		if err != nil {
			return true
		}
		p3, _ := NewProcedure3(c)
		agree := true
		for i := 0; i < n; i++ {
			spec := SessionSpec{ID: i, Rate: 1e3 + float64(r.Intn(100000)), LMax: lMax, LMin: lMax}
			// Procedure 2 class 1 gives d = sigma_1 exactly (R_0 = 0).
			_, err2 := p2.Admit(spec, 1, Options{})
			_, err3 := p3.Admit(spec, 0, Options{D: d})
			if (err2 == nil) != (err3 == nil) {
				agree = false
			}
		}
		return agree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCapacityNeverOverbooked: whatever sequence of admissions and
// removals happens, the committed rate never exceeds C.
func TestCapacityNeverOverbooked(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := 1e6
		classes := []Class{{R: 0.3e6, Sigma: 0.01}, {R: c, Sigma: 0.1}}
		p, err := NewProcedure1(c, classes)
		if err != nil {
			return false
		}
		id := 0
		for i := 0; i < 100; i++ {
			if r.Float64() < 0.7 {
				id++
				spec := SessionSpec{ID: id, Rate: float64(1000 * (1 + r.Intn(300))), LMax: 400, LMin: 400}
				p.Admit(spec, 1+r.Intn(2), Options{})
			} else if id > 0 {
				p.Remove(1 + r.Intn(id))
			}
			if p.TotalRate() > c*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSpecValidation(t *testing.T) {
	c, classes := workedClasses()
	p, _ := NewProcedure1(c, classes)
	bad := []SessionSpec{
		{ID: 1, Rate: 0, LMax: 400, LMin: 400},
		{ID: 1, Rate: 1e3, LMax: 0, LMin: 0},
		{ID: 1, Rate: 1e3, LMax: 100, LMin: 400},
	}
	for i, spec := range bad {
		if _, err := p.Admit(spec, 1, Options{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := p.Admit(SessionSpec{ID: 1, Rate: 1e3, LMax: 400, LMin: 400}, 4, Options{}); err == nil {
		t.Error("out-of-range class accepted")
	}
}
