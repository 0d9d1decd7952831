package experiments

import "testing"

// TestChaosRecoveryOutcomes is the acceptance check for the recovery
// arc: a chaos scenario that resets QPs (or exhausts the retry budget)
// mid-transfer completes every message when the recovery controller
// reconnects, and parks the flow in FlowError when it is disabled —
// while the control flow on the unaffected host is untouched either
// way.
func TestChaosRecoveryOutcomes(t *testing.T) {
	tb, err := ChaosRecovery(NewSession(42))
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range tb.Header {
		col[h] = i
	}
	checked := 0
	for _, row := range tb.Rows {
		cond, rec, flow := row[col["condition"]], row[col["recovery"]], row[col["flow"]]
		msgs, state, ferr := row[col["msgs"]], row[col["state"]], row[col["err"]]
		switch {
		case flow == "flow-2":
			// The control flow never sees the fault.
			if msgs != "16/16" || state != "active" || ferr != "-" {
				t.Errorf("%s/recovery=%s control flow: msgs=%s state=%s err=%s",
					cond, rec, msgs, state, ferr)
			}
		case rec == "on":
			if msgs != "16/16" || state != "active" {
				t.Errorf("%s with recovery: msgs=%s state=%s, want 16/16 active", cond, msgs, state)
			}
			if row[col["reconnects"]] == "0" {
				t.Errorf("%s with recovery: no reconnects recorded", cond)
			}
			checked++
		default: // faulted flow, recovery off
			if state != "error" {
				t.Errorf("%s without recovery: state=%s, want error", cond, state)
			}
			if msgs == "16/16" {
				t.Errorf("%s without recovery: transfer completed without a reconnect", cond)
			}
			wantErr := map[string]string{"qp-reset": "wqe-flushed", "rto-budget": "retry-budget"}[cond]
			if ferr != wantErr {
				t.Errorf("%s without recovery: err=%s, want %s", cond, ferr, wantErr)
			}
			checked++
		}
	}
	if checked != 4 {
		t.Fatalf("checked %d faulted-flow rows, want 4 (2 conditions x on/off)", checked)
	}
}
