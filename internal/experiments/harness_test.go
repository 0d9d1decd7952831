package experiments

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSimDigestIndependentOfCellOrder: a runner whose cells finish in
// reverse order on a parallel pool leaves the same sim-state digest as
// a serial run. Cell i sleeps (n-i)*2 ms, then builds an engine and
// fires i events, so at Parallelism 4 the session's engines are built
// in a different order than serially. One more event in any cell must
// change the digest, so a constant digest cannot pass.
func TestSimDigestIndependentOfCellOrder(t *testing.T) {
	const n = 8
	reverseCells := func(extra int) Runner {
		return Runner{ID: "reverse-cells", Desc: "cells finish in reverse order", Fn: func(s *Session) (*Table, error) {
			err := s.runCells(n, func(i int) error {
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				eng := s.newEngine()
				events := i
				if i == 0 {
					events += extra
				}
				for k := 0; k < events; k++ {
					eng.After(sim.Duration(k+1), func() {})
				}
				eng.RunAll()
				return nil
			})
			return &Table{ID: "reverse-cells"}, err
		}}
	}
	digest := func(r Runner, parallelism int) string {
		s := NewSession(1)
		s.Parallelism = parallelism
		if _, err := r.Fn(s); err != nil {
			t.Fatal(err)
		}
		d := s.StateDigest()
		if d == "" {
			t.Fatalf("parallelism %d: empty sim digest", parallelism)
		}
		return d
	}
	serial := digest(reverseCells(0), 1)
	if par := digest(reverseCells(0), 4); par != serial {
		t.Errorf("sim digest at parallelism 4 = %s, serial = %s", par, serial)
	}
	if more := digest(reverseCells(1), 1); more == serial {
		t.Errorf("one more event left the sim digest unchanged: %s", serial)
	}
}
