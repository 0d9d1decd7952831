package fabric

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// delivery is one packet as its destination saw it.
type delivery struct {
	at        sim.Time
	flow, seq uint64
	ecn       bool
}

// shardedRun is what a sharded fabric run must reproduce exactly.
type shardedRun struct {
	logs                     [][]delivery // per destination host
	sent, delivered, dropped uint64
}

// runIncast drives every host outside pod 0 into pod 0 on a 4-pod
// fabric split across the given number of shards. Sends are scheduled
// in descending source order, so same-instant arrivals at a Core→Agg
// entry link reach it in a different order on one engine than through
// the handoff merge, which sorts by ascending source shard; only the
// entry links' canonical drain makes the runs agree.
func runIncast(shards int) shardedRun {
	const (
		hostsPerSeg = 4
		burst       = 16
		size        = 4096
	)
	se := sim.NewShardedEngine(3, sim.SchedulerWheel, shards)
	f := NewSharded(se, Config{
		Segments: 8, HostsPerSegment: hostsPerSeg, Aggs: 4,
		SegmentsPerPod: 2, CoreSwitches: 2,
		HostLinkBW: 1e9, FabricLinkBW: 1e9,
		LinkDelay: time.Microsecond, QueueLimit: 64 << 10, ECNThreshold: 16 << 10,
	})
	podHosts := 2 * hostsPerSeg
	out := shardedRun{logs: make([][]delivery, podHosts)}
	for h := 0; h < podHosts; h++ {
		eng := f.EngineFor(HostID(h))
		f.Handle(HostID(h), func(p *Packet) {
			out.logs[h] = append(out.logs[h], delivery{eng.Now(), p.Flow, p.Seq, p.ECN()})
		})
	}
	for src := HostID(f.NumHosts() - 1); src >= HostID(podHosts); src-- {
		eng := f.EngineFor(src)
		for i := 0; i < burst; i++ {
			out.sent++
			eng.At(sim.Time(i)*sim.Time(size), func() {
				p := f.AllocPacketFor(src)
				p.Flow, p.Seq, p.Size = uint64(src), uint64(i), size
				p.Src, p.Dst, p.PathID = src, src%HostID(podHosts), i
				if err := f.Send(p); err != nil {
					panic(err)
				}
			})
		}
	}
	se.RunAll()
	out.delivered, out.dropped = f.Delivered(), f.Dropped()
	return out
}

// TestShardedMatchesSingleEngine: a multi-pod fabric split across 2 or
// 4 shards must deliver every packet at the same time, with the same
// ECN mark, and drop the same packets as on one engine.
func TestShardedMatchesSingleEngine(t *testing.T) {
	ref := runIncast(1)
	if ref.dropped == 0 {
		t.Fatal("reference run has no tail drops; the incast is too light to test drop order")
	}
	if ref.delivered+ref.dropped != ref.sent {
		t.Fatalf("delivered %d + dropped %d, want %d sent", ref.delivered, ref.dropped, ref.sent)
	}
	for _, shards := range []int{2, 4} {
		got := runIncast(shards)
		if got.delivered != ref.delivered || got.dropped != ref.dropped {
			t.Errorf("shards=%d: delivered/dropped %d/%d, want %d/%d",
				shards, got.delivered, got.dropped, ref.delivered, ref.dropped)
		}
		for h := range ref.logs {
			if !reflect.DeepEqual(got.logs[h], ref.logs[h]) {
				t.Errorf("shards=%d: host %d delivery log diverged from one engine:\n got %v\nwant %v",
					shards, h, got.logs[h], ref.logs[h])
				break // later hosts usually diverge too; one is enough
			}
		}
	}
}
