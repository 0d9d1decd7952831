package fabric

import (
	"reflect"
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
// one 64-byte line, and so is a packet, which holds no pointer. An
// arrival then touches one line of each, a packet lands in the
// collector's pointer-free 64-byte size class, and the packets in
// flight are never scanned. A field added to either turns this red.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(link{}); got != 64 {
		t.Errorf("sizeof(link) = %d, want 64", got)
	}
	// int is PathID's type: a 32-bit build packs the packet in 60 bytes.
	if got, want := unsafe.Sizeof(Packet{}), 56+unsafe.Sizeof(int(0)); got != want {
		t.Errorf("sizeof(Packet) = %d, want %d", got, want)
	}
	if p := pointerField(reflect.TypeOf(Packet{})); p != "" {
		t.Errorf("Packet field %s holds a pointer", p)
	}
}

// pointerField returns the path of the first field of t whose kind the
// collector must scan, or "" if there is none.
func pointerField(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return t.Kind().String()
	}
}
