package collective

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

func newCluster(t *testing.T, seed uint64, segs, hostsPerSeg, aggs int) (*sim.Engine, *fabric.Fabric, []*transport.Endpoint) {
	t.Helper()
	eng := sim.NewEngine(seed)
	f := fabric.New(eng, fabric.Config{
		Segments: segs, HostsPerSegment: hostsPerSeg, Aggs: aggs,
		HostLinkBW: 12.5e9, FabricLinkBW: 12.5e9,
		LinkDelay: 2 * time.Microsecond, QueueLimit: 4 << 20, ECNThreshold: 256 << 10,
	})
	var eps []*transport.Endpoint
	for h := 0; h < f.NumHosts(); h++ {
		eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h), transport.Config{}))
	}
	return eng, f, eps
}

func TestVolumePerFlow(t *testing.T) {
	// 2(N-1)/N of the reduce size.
	if got := VolumePerFlow(2, 1000); got != 1000 {
		t.Errorf("N=2: %d, want 1000", got)
	}
	if got := VolumePerFlow(4, 1000); got != 1500 {
		t.Errorf("N=4: %d, want 1500", got)
	}
	if got := VolumePerFlow(512, 512000); got != 2*511*1000 {
		t.Errorf("N=512: %d", got)
	}
}

func TestRingRejectsSingleton(t *testing.T) {
	_, _, eps := newCluster(t, 1, 2, 2, 4)
	if _, err := NewRing(eps[:1], 1, multipath.OBS, 4); !errors.Is(err, ErrTooFewParticipants) {
		t.Errorf("err = %v", err)
	}
}

func TestRingReduceCompletes(t *testing.T) {
	eng, _, eps := newCluster(t, 2, 2, 4, 8)
	ring, err := NewRing(eps, 1, multipath.OBS, 8)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	ring.Reduce(eng, 4<<20, func(r Result) { res = r })
	eng.RunAll()
	if res.End == 0 {
		t.Fatal("reduce never completed")
	}
	if res.VolumePerFlow != VolumePerFlow(8, 4<<20) {
		t.Errorf("VolumePerFlow = %d", res.VolumePerFlow)
	}
	if res.BusBW <= 0 {
		t.Error("BusBW not computed")
	}
	// Every ring edge moved the same volume.
	for i, c := range ring.Conns() {
		if c.BytesAcked != res.VolumePerFlow {
			t.Errorf("edge %d acked %d bytes, want %d", i, c.BytesAcked, res.VolumePerFlow)
		}
	}
	ring.Close()
}

// TestReduceRoundsReportsUnfinishedReduce: a measured reduce that has
// not completed by the horizon is an error naming its cell, not a
// zero-valued result; one that has, returns every round.
func TestReduceRoundsReportsUnfinishedReduce(t *testing.T) {
	eng, _, eps := newCluster(t, 7, 2, 4, 8)
	ring, err := NewRing(eps, 1, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ring.Rounds(eng, 1<<20, 1, time.Microsecond, "fig10a: obs/128")
	if err == nil || !strings.Contains(err.Error(), "fig10a: obs/128") {
		t.Errorf("Rounds at a 1 µs horizon = %v, %v; want an error naming fig10a: obs/128", res, err)
	}

	eng, _, eps = newCluster(t, 7, 2, 4, 8)
	ring, _ = NewRing(eps, 1, multipath.OBS, 16)
	res, err = ring.Rounds(eng, 1<<20, 3, time.Second, "three rounds")
	if err != nil || len(res) != 3 || res[0].End > res[1].Start {
		t.Errorf("Rounds(3) = %v, %v; want three back-to-back results", res, err)
	}
}

func TestRingPlacementAffectsFabricLoad(t *testing.T) {
	// A contiguous (reranked) ring stays mostly intra-segment; a ring
	// alternating across segments pushes every edge over the agg layer.
	engA, fA, epsA := newCluster(t, 3, 2, 8, 8)
	ringA, _ := NewRing(epsA[:8], 1, multipath.OBS, 8) // all in segment 0
	ringA.Reduce(engA, 1<<20, nil)
	engA.RunAll()
	var bytesA uint64
	for _, s := range fA.UplinkStats(0) {
		bytesA += s.BytesTx
	}

	engB, fB, epsB := newCluster(t, 3, 2, 8, 8)
	// Interleave segments: 0, 8, 1, 9, ... every edge crosses.
	var order []*transport.Endpoint
	for i := 0; i < 8; i++ {
		order = append(order, epsB[i], epsB[8+i])
	}
	ringB, _ := NewRing(order[:8], 1, multipath.OBS, 8)
	ringB.Reduce(engB, 1<<20, nil)
	engB.RunAll()
	var bytesB uint64
	for _, s := range fB.UplinkStats(0) {
		bytesB += s.BytesTx
	}
	if bytesB <= bytesA*2 {
		t.Errorf("cross-segment ring uplink bytes %d not ≫ contiguous %d", bytesB, bytesA)
	}
}

func TestCyclicBursts(t *testing.T) {
	eng, _, eps := newCluster(t, 4, 2, 4, 8)
	ring, _ := NewRing(eps[:4], 1, multipath.OBS, 8)
	cyc := NewCyclic(eng, ring, 256<<10, 2*time.Millisecond, 2*time.Millisecond)
	cyc.Start()
	eng.Run(sim.Time(10 * time.Millisecond))
	if cyc.Completed < 2 {
		t.Errorf("cyclic driver completed %d reduces, want several", cyc.Completed)
	}
}

func TestRunPermutationSpreadsWith128Paths(t *testing.T) {
	// Figure 9's headline: 128-path spraying slashes queue depth vs
	// single path.
	run := func(alg multipath.Algorithm, paths int) PermutationResult {
		eng, f, eps := newCluster(t, 5, 2, 8, 8)
		res, err := RunPermutation(eng, f, eps, PermutationConfig{
			Alg: alg, Paths: paths, BytesPerFlow: 4 << 20,
			SamplePeriod: sim.Duration(20 * time.Microsecond), Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(multipath.SinglePath, 1)
	sprayed := run(multipath.OBS, 128)
	if sprayed.MaxQueue >= single.MaxQueue {
		t.Errorf("obs/128 max queue %d not below single-path %d", sprayed.MaxQueue, single.MaxQueue)
	}
	if sprayed.Goodput <= single.Goodput {
		t.Errorf("obs/128 goodput %.2e not above single-path %.2e", sprayed.Goodput, single.Goodput)
	}
}

func TestRunPermutationValidation(t *testing.T) {
	eng, f, eps := newCluster(t, 6, 1, 4, 4)
	if _, err := RunPermutation(eng, f, eps, PermutationConfig{Alg: multipath.OBS, Paths: 4, BytesPerFlow: 1 << 20}); err == nil {
		t.Error("single-segment permutation accepted")
	}
}
