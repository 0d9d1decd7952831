package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/multipath"
	"repro/internal/transport"
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

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tb.AddRow("1", "v,w")
	tb.AddRow(`q"q`, "2")
	got := tb.CSV()
	want := "a,b\n1,\"v,w\"\n\"q\"\"q\",2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
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

// TestReduceRoundsReportsUnfinishedReduce: a measured reduce that has
// not completed by the horizon is an error naming its cell, not a
// zero-valued result.
func TestReduceRoundsReportsUnfinishedReduce(t *testing.T) {
	eng, _, eps := NewSession(1).cluster(netConfig(4, 8), transport.Config{})
	ring, err := collective.NewRing(interleave(eps, 8, 4), 1, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reduceRounds(eng, ring, 1<<20, 1, time.Microsecond, "fig10a: obs/128")
	if err == nil || !strings.Contains(err.Error(), "fig10a: obs/128") {
		t.Errorf("reduceRounds at a 1 µs horizon = %v, %v; want an error naming fig10a: obs/128", res, err)
	}
}
