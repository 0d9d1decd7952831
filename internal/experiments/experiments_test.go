package experiments

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAllRegistryComplete checks the registry and its claims: IDs are
// unique and complete, every experiment has a claim row or a written
// reason in unclaimed, and every §5–§8 figure and table has a row
// carrying the paper's value.
func TestAllRegistryComplete(t *testing.T) {
	claimed, paper := map[string]bool{}, map[string]bool{}
	for _, c := range claims {
		if _, ok := Lookup(c.exp); !ok {
			t.Errorf("claim row for unregistered experiment %s", c.exp)
		}
		claimed[c.exp] = true
		paper[c.exp] = paper[c.exp] || !strings.HasPrefix(c.source, "extension:")
	}
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Errorf("duplicate experiment %s", r.ID)
		}
		seen[r.ID] = true
		if r.Fn == nil || r.Desc == "" {
			t.Errorf("experiment %s incomplete", r.ID)
		}
		if _, exempt := unclaimed[r.ID]; claimed[r.ID] == exempt {
			t.Errorf("experiment %s: claim rows %v, in unclaimed %v; want exactly one", r.ID, claimed[r.ID], exempt)
		}
	}
	for _, want := range []string{"fig6", "fig8", "fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16a", "fig16b", "table1", "sec4"} {
		if !paper[want] {
			t.Errorf("%s has no claim row carrying a paper value", want)
		}
	}
	if _, ok := Lookup("fig6"); !ok {
		t.Error("Lookup(fig6) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	s := tb.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table.String missing %q:\n%s", want, s)
		}
	}
}

// TestSeedChangesNetworkResults: seeds must actually steer the
// randomised parts (placements, permutations), or the "sweep seeds for
// robustness" workflow silently measures one sample.
func TestSeedChangesNetworkResults(t *testing.T) {
	a, err := Prob6Core(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prob6Core(NewSession(99))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, b.Rows) {
		t.Error("different seeds produced identical network tables; seeding is dead")
	}
}

// TestEachSimulationRunsOnce: a ring's bandwidth depends on its host
// order and transport stack, not on the model trained over it, so fig16
// simulates each distinct (order, stack) pair once — reranked placement
// ignores its seed, leaving one order, random ranking has two — and
// fig15's regular and secure rows share one simulation.
func TestEachSimulationRunsOnce(t *testing.T) {
	for _, tc := range []struct {
		id      string
		engines int
	}{{"fig16a", 2}, {"fig16b", 4}, {"fig15", 1}} {
		r, _ := Lookup(tc.id)
		s := NewSession(42)
		if _, err := r.Fn(s); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := s.Engines(); got != tc.engines {
			t.Errorf("%s built %d engines, want %d", tc.id, got, tc.engines)
		}
	}
}

// TestFig16MaxNoteIsColumnMax: the note's max is the largest row of the
// improvement column, also when every row is negative, as all of
// fig16a's are at seed 1.
func TestFig16MaxNoteIsColumnMax(t *testing.T) {
	tb, err := Fig16a(NewSession(1))
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(tb.Header, "improvement")
	best := math.Inf(-1)
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, v)
	}
	if want := fmt.Sprintf("max %+.2f%%", best); len(tb.Notes) != 1 || !strings.HasSuffix(tb.Notes[0], want) {
		t.Errorf("notes %q, want one ending in %q", tb.Notes, want)
	}
}
