package jobgraph

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestLoadParsesWireFormat(t *testing.T) {
	g, err := Load([]byte(`{
		"name": "wire", "ranks": 2, "comment": "doc",
		"ops": [
			{"id": "c", "kind": "compute", "rank": 0, "for": "1500us", "comment": "think"},
			{"id": "s", "kind": "send", "rank": 0, "peer": 1, "bytes": 4096, "tag": 7, "deps": ["c"]},
			{"id": "r", "kind": "recv", "rank": 1, "peer": 0, "tag": 7},
			{"id": "ar", "kind": "collective", "ranks": [0, 1], "bytes": 65536, "deps": ["r"]}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "wire" || g.Ranks != 2 || g.Comment != "doc" || len(g.Ops) != 4 {
		t.Fatalf("graph = %+v", g)
	}
	if g.Ops[0].Duration != 1500*time.Microsecond || g.Ops[0].Comment != "think" {
		t.Errorf("compute op = %+v", g.Ops[0])
	}
	if g.Ops[1].Bytes != 4096 || g.Ops[1].Tag != 7 || g.Ops[1].Deps[0] != "c" {
		t.Errorf("send op = %+v", g.Ops[1])
	}
	if got := g.Ops[3].Ranks; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("collective ranks = %v", got)
	}
}

// Graphs whose every op is valid but whose totals overflow: int64
// virtual time along a compute chain, and uint64 ring volume.
const (
	overflowCompute = `{"name":"h","ranks":2,"ops":[{"id":"c","kind":"compute","rank":0,"for":"2562047h"},{"id":"d","kind":"compute","rank":0,"for":"2562047h","deps":["c"]}]}`
	overflowRing3   = `{"name":"ov3","ranks":3,"ops":[{"id":"a","kind":"collective","ranks":[0,1,2],"bytes":9223372036854775809}]}`
	overflowRing2   = `{"name":"ov2","ranks":2,"ops":[{"id":"a","kind":"collective","ranks":[0,1],"bytes":9223372036854775808}]}`
)

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"cycle", `{"name":"x","ranks":1,"ops":[
			{"id":"a","kind":"compute","deps":["b"]},
			{"id":"b","kind":"compute","deps":["a"]}]}`, ErrCycle},
		{"dangling", `{"name":"x","ranks":1,"ops":[
			{"id":"a","kind":"compute","deps":["nope"]}]}`, ErrDanglingDep},
		{"rank range", `{"name":"x","ranks":2,"ops":[
			{"id":"a","kind":"compute","rank":2}]}`, ErrRankRange},
		{"unmatched recv", `{"name":"x","ranks":2,"ops":[
			{"id":"r","kind":"recv","rank":1,"peer":0}]}`, ErrUnmatchedRecv},
		{"absurd ranks", `{"name":"huge","ranks":4611686018427387904,"ops":[
			{"id":"c0","kind":"compute","rank":0,"for":"1us"}]}`, ErrRanks},
		{"compute chain past virtual time", overflowCompute, ErrTooLarge},
		{"3-rank ring volume past 2^64", overflowRing3, ErrTooLarge},
		{"2-rank ring volume past 2^64", overflowRing2, ErrTooLarge},
	}
	for _, tc := range cases {
		if _, err := Load([]byte(tc.in)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Load([]byte(`{"name":"x","ranks":1,"ops":[{"id":"a","kind":"compute","for":"fast"}]}`)); err == nil || !strings.Contains(err.Error(), "bad duration") {
		t.Errorf("bad duration err = %v", err)
	}
	if _, err := Load([]byte(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
	if _, err := LoadFile("does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGraphRoundTripsThroughJSON(t *testing.T) {
	g := chain(t)
	g.Comment = "round trip"
	g.Ops[0].Comment = "op comment"
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, back) {
		t.Errorf("round trip mismatch:\n  in:  %+v\n  out: %+v", g, back)
	}
}

func TestExampleGraphsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../examples/jobgraph/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example graphs found (err=%v)", err)
	}
	for _, p := range paths {
		g, err := LoadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if g.Name == "" || len(g.Ops) == 0 {
			t.Errorf("%s: degenerate graph %+v", p, g)
		}
	}
}
