package fabric

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestSendDeliverAllocFree pins the zero-allocation fabric hot path:
// once the packet and engine event free lists are warm, a full
// Send→deliver round trip (pooled packet, per-hop events, queue
// accounting, delivery, pool release) must not touch the heap on any
// route shape. The cross-pod route also passes an entry link's pending
// buffer and its instant-end drain. A change that reintroduces a
// per-packet allocation turns this red.
func TestSendDeliverAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		build    func(*sim.Engine) *Fabric
		src, dst HostID
	}{
		{"intra-segment", smallFabric, 0, 1},
		{"cross-segment", smallFabric, 0, 5},
		{"cross-pod", podFabric, 0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			f := tc.build(eng)
			delivered := 0
			f.Handle(tc.dst, func(*Packet) { delivered++ })
			roundTrip := func() {
				p := f.AllocPacket()
				p.Src, p.Dst, p.Size, p.PathID = tc.src, tc.dst, 1000, 3
				if err := f.Send(p); err != nil {
					t.Fatal(err)
				}
				eng.RunAll()
			}
			for i := 0; i < 64; i++ {
				roundTrip()
			}
			if delivered != 64 {
				t.Fatalf("delivered %d of 64 warm-up packets", delivered)
			}
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
				t.Errorf("Send→deliver allocates %.2f objects/op, want 0", allocs)
			}
		})
	}
}

// TestHotLayout pins the cache-line layout of the hop path: a link is
// one 64-byte line, and a packet's route, hop cursor, ECN bit and size
// all sit in its first 64 bytes, so a steady-state arrival touches one
// line of each. A field added to either hot set turns this red.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(link{}); got != 64 {
		t.Errorf("sizeof(link) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(Packet{}); got != 128 {
		t.Errorf("sizeof(Packet) = %d, want 128", got)
	}
	var p Packet
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"route", unsafe.Offsetof(p.route), unsafe.Sizeof(p.route)},
		{"hops", unsafe.Offsetof(p.hops), unsafe.Sizeof(p.hops)},
		{"at", unsafe.Offsetof(p.at), unsafe.Sizeof(p.at)},
		{"ECN", unsafe.Offsetof(p.ECN), unsafe.Sizeof(p.ECN)},
		{"Slot", unsafe.Offsetof(p.Slot), unsafe.Sizeof(p.Slot)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Packet.%s ends at byte %d, past the first cache line", f.name, end)
		}
	}
}
