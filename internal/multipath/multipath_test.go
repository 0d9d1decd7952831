package multipath

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func countPaths(s Selector, n int) map[int]int {
	got := make(map[int]int)
	for i := 0; i < n; i++ {
		got[s.NextPath()]++
	}
	return got
}

func TestAllSelectorsStayInRange(t *testing.T) {
	for _, alg := range Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			f := func(seed uint64, paths uint8) bool {
				n := int(paths%128) + 1
				s := New(alg, n, sim.NewRNG(seed))
				if s.NumPaths() != n {
					return false
				}
				for i := 0; i < 500; i++ {
					p := s.NextPath()
					if p < 0 || p >= n {
						return false
					}
					if i%7 == 0 {
						s.Feedback(p, 20*time.Microsecond, i%3 == 0, i%11 == 0)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSinglePathIsConstant(t *testing.T) {
	s := New(SinglePath, 128, sim.NewRNG(1))
	first := s.NextPath()
	for i := 0; i < 100; i++ {
		if s.NextPath() != first {
			t.Fatal("single-path moved")
		}
	}
}

func TestRoundRobinIsUniformAndCyclic(t *testing.T) {
	const n = 8
	s := New(RoundRobin, n, sim.NewRNG(2))
	got := countPaths(s, 8*n)
	for p := 0; p < n; p++ {
		if got[p] != 8 {
			t.Fatalf("rr distribution = %v", got)
		}
	}
}

func TestOBSIsStatisticallyUniform(t *testing.T) {
	const n, trials = 16, 64000
	s := New(OBS, n, sim.NewRNG(3))
	got := countPaths(s, trials)
	want := trials / n
	for p := 0; p < n; p++ {
		if got[p] < want*85/100 || got[p] > want*115/100 {
			t.Errorf("obs path %d: %d picks, want ~%d", p, got[p], want)
		}
	}
}

func TestOBSDecorrelatedAcrossConnections(t *testing.T) {
	rng := sim.NewRNG(4)
	a := New(OBS, 64, rng.Fork(1))
	b := New(OBS, 64, rng.Fork(2))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.NextPath() == b.NextPath() {
			same++
		}
	}
	// Pure chance gives ~1000/64 ≈ 16 collisions.
	if same > 60 {
		t.Errorf("two OBS connections collided on %d/1000 picks", same)
	}
}

func TestBestRTTHerdsWithoutFeedback(t *testing.T) {
	// Figure 10a's pathology: with symmetric paths and sparse feedback,
	// BestRTT concentrates on very few paths.
	s := New(BestRTT, 128, sim.NewRNG(5))
	got := countPaths(s, 1000)
	// Probing is 1/16, so the dominant path should have ~90%+.
	max := 0
	for _, c := range got {
		if c > max {
			max = c
		}
	}
	if max < 800 {
		t.Errorf("best-rtt max path share = %d/1000; expected herding", max)
	}
}

func TestBestRTTMovesAwayFromSlowPath(t *testing.T) {
	s := New(BestRTT, 4, sim.NewRNG(6))
	// Teach it: path 0 slow, others fast.
	s.Feedback(0, time.Millisecond, false, false)
	s.Feedback(1, 10*time.Microsecond, false, false)
	s.Feedback(2, 12*time.Microsecond, false, false)
	s.Feedback(3, 15*time.Microsecond, false, false)
	got := countPaths(s, 320)
	if got[1] < got[0] {
		t.Errorf("best-rtt prefers slow path: %v", got)
	}
}

func TestDWRRConcentratesOnFastPaths(t *testing.T) {
	s := New(DWRR, 8, sim.NewRNG(7))
	// Path 0 fast, path 1 heavily marked, rest slow.
	for i := 0; i < 20; i++ {
		s.Feedback(0, 10*time.Microsecond, false, false)
		s.Feedback(1, 10*time.Microsecond, true, false)
		for p := 2; p < 8; p++ {
			s.Feedback(p, 100*time.Microsecond, false, false)
		}
	}
	got := countPaths(s, 800)
	if got[0] <= got[1] {
		t.Errorf("dwrr favoured the ECN-marked path: %v", got)
	}
	if got[0] <= got[5] {
		t.Errorf("dwrr did not weight toward the fast path: %v", got)
	}
}

func TestDWRRUniformWhenUntrained(t *testing.T) {
	s := New(DWRR, 4, sim.NewRNG(8))
	got := countPaths(s, 400)
	for p := 0; p < 4; p++ {
		if got[p] != 100 {
			t.Fatalf("untrained dwrr not uniform: %v", got)
		}
	}
}

func TestMPRDMASkipsCongestedPaths(t *testing.T) {
	s := New(MPRDMA, 4, sim.NewRNG(9))
	s.Feedback(2, 20*time.Microsecond, false, true) // loss: cooldown 8
	got := countPaths(s, 8)
	if got[2] != 0 {
		t.Errorf("mprdma used a cooling-down path: %v", got)
	}
	// After the cooldown expires it resumes.
	got = countPaths(s, 64)
	if got[2] == 0 {
		t.Errorf("mprdma never resumed path 2: %v", got)
	}
}

func TestMPRDMAAllCoolingStillSends(t *testing.T) {
	s := New(MPRDMA, 2, sim.NewRNG(10))
	s.Feedback(0, time.Microsecond, false, true)
	s.Feedback(1, time.Microsecond, false, true)
	p := s.NextPath()
	if p != 0 && p != 1 {
		t.Error("no path returned when all cooling")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	want := map[Algorithm]string{
		SinglePath: "single-path", RoundRobin: "rr", DWRR: "dwrr",
		BestRTT: "best-rtt", MPRDMA: "mprdma", OBS: "obs",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%v.String() = %q", a, a.String())
		}
	}
	if len(Algorithms()) != 6 {
		t.Error("Algorithms() incomplete")
	}
}

func TestFeedbackIgnoresBadPath(t *testing.T) {
	for _, alg := range Algorithms() {
		s := New(alg, 4, sim.NewRNG(11))
		s.Feedback(-1, time.Microsecond, false, false)
		s.Feedback(99, time.Microsecond, true, true)
		p := s.NextPath()
		if p < 0 || p >= 4 {
			t.Errorf("%s broken by out-of-range feedback", alg)
		}
	}
}
