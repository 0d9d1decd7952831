package rnic

import "testing"

func TestOnQPErrorFiresOncePerEpisode(t *testing.T) {
	h := newHost(t, Config{})
	qp, err := h.rnic.CreateQP(h.rnic.AllocPD())
	if err != nil {
		t.Fatal(err)
	}
	mustRTS(t, h.rnic, qp)
	fired := 0
	h.rnic.OnQPError(func(got *QP) {
		fired++
		if got != qp {
			t.Error("observer got wrong QP")
		}
	})
	if err := h.rnic.ModifyQP(qp, QPError); err != nil {
		t.Fatal(err)
	}
	// Error -> Error is the same episode: no second notification.
	if err := h.rnic.ModifyQP(qp, QPError); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("observer fired %d times for one episode", fired)
	}
	if err := h.rnic.RecoverQP(qp); err != nil {
		t.Fatal(err)
	}
	if qp.State != QPReadyToSend {
		t.Fatalf("recovered state = %v, want RTS", qp.State)
	}
	// A fresh fault is a new episode.
	if n := h.rnic.ResetQPs(); n != 1 {
		t.Errorf("ResetQPs = %d, want 1", n)
	}
	if fired != 2 {
		t.Errorf("observer fired %d times across two episodes, want 2", fired)
	}
}

func TestResetQPsIdempotentAndCounts(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	qp1, _ := h.rnic.CreateQP(pd)
	qp2, _ := h.rnic.CreateQP(pd)
	mustRTS(t, h.rnic, qp1)
	if n := h.rnic.ResetQPs(); n != 2 {
		t.Errorf("first ResetQPs = %d, want 2", n)
	}
	if qp1.State != QPError || qp2.State != QPError {
		t.Error("QPs not in error state after ResetQPs")
	}
	if n := h.rnic.ResetQPs(); n != 0 {
		t.Errorf("second ResetQPs = %d, want 0 (already errored)", n)
	}
}

func TestRecoverQPFromFreshAndErrored(t *testing.T) {
	h := newHost(t, Config{})
	pd := h.rnic.AllocPD()
	qp, _ := h.rnic.CreateQP(pd)
	// Fresh RESET -> RTS.
	if err := h.rnic.RecoverQP(qp); err != nil {
		t.Fatal(err)
	}
	if qp.State != QPReadyToSend {
		t.Fatalf("state = %v, want RTS", qp.State)
	}
	// Errored -> RTS.
	if err := h.rnic.ModifyQP(qp, QPError); err != nil {
		t.Fatal(err)
	}
	if err := h.rnic.RecoverQP(qp); err != nil {
		t.Fatal(err)
	}
	if qp.State != QPReadyToSend {
		t.Fatalf("state after recover = %v, want RTS", qp.State)
	}
	// Forward-only transitions still reject skipping states.
	if err := h.rnic.ModifyQP(qp, QPInit); err == nil {
		t.Error("RTS->INIT accepted; forward transitions must stay strict")
	}
}
