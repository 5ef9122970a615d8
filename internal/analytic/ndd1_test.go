package analytic

import (
	"math"
	"testing"

	"leaveintime/internal/rng"
)

func TestNDD1Utilization(t *testing.T) {
	q := NDD1{N: 8, T: 12}
	if got := q.Rho(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Rho = %v", got)
	}
	// P(Q > 0) equals the utilization in a slotted queue sampled after
	// arrivals... of the slots with work, exactly rho of slots are
	// busy.
	if got := q.QueueTail(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("QueueTail(0) = %v, want rho", got)
	}
}

func TestNDD1Edges(t *testing.T) {
	q := NDD1{N: 8, T: 12}
	if q.QueueTail(-1) != 1 {
		t.Error("negative x")
	}
	if q.QueueTail(8) != 0 {
		t.Error("x >= N must have zero tail")
	}
	if q.QueueTail(100) != 0 {
		t.Error("large x")
	}
}

func TestNDD1Monotone(t *testing.T) {
	q := NDD1{N: 47, T: 48} // the Figure 11 cross traffic
	prev := 1.0
	for x := 0; x < 47; x++ {
		v := q.QueueTail(x)
		if v > prev+1e-12 || v < 0 {
			t.Fatalf("tail not monotone at %d: %v > %v", x, v, prev)
		}
		prev = v
	}
	if q.QueueTail(0) < 0.97 {
		t.Errorf("rho = %v but QueueTail(0) = %v", q.Rho(), q.QueueTail(0))
	}
}

// TestNDD1AgainstSimulation validates the DP against a direct slotted
// simulation with random phases.
func TestNDD1AgainstSimulation(t *testing.T) {
	const (
		N = 8
		T = 12
	)
	q := NDD1{N: N, T: T}
	r := rng.New(77)
	counts := make([]int64, N+1)
	var total int64
	const reps = 30000
	for rep := 0; rep < reps; rep++ {
		var perSlot [T]int
		for i := 0; i < N; i++ {
			perSlot[r.Intn(T)]++
		}
		// Two periods of warmup, one measured (the queue is periodic
		// after one cycle).
		queue := 0
		for p := 0; p < 3; p++ {
			for s := 0; s < T; s++ {
				queue += perSlot[s]
				if p == 2 {
					for x := 0; x <= N; x++ {
						if queue > x {
							counts[x]++
						}
					}
					total++
				}
				if queue > 0 {
					queue--
				}
			}
		}
	}
	for x := 0; x <= 5; x++ {
		sim := float64(counts[x]) / float64(total)
		ana := q.QueueTail(x)
		if ana < 1e-4 {
			continue
		}
		if math.Abs(sim-ana) > 0.05*ana+2e-3 {
			t.Errorf("x=%d: simulated %v, analytic %v", x, sim, ana)
		}
	}
}

func TestNDD1PanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("N >= T did not panic")
		}
	}()
	NDD1{N: 12, T: 12}.QueueTail(1)
}
