package stellar

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/pcie"
	"repro/internal/rund"
	"repro/internal/transport"
)

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	hostCfg := DefaultHostConfig()
	hostCfg.MemoryBytes = 32 << 30
	hostCfg.GPUMemoryBytes = 1 << 30
	cl, err := NewCluster(ClusterConfig{
		NumHosts: n,
		Host:     hostCfg,
		Fabric: fabric.Config{
			Segments: 2, Aggs: 16,
			HostLinkBW: 50e9, FabricLinkBW: 50e9,
			LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
		},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// deviceOn boots a PVDMA container and a vStellar device on host i.
func deviceOn(t *testing.T, cl *Cluster, i int) (*rund.Container, *VStellarDevice) {
	t.Helper()
	h := cl.Hosts[i]
	c, err := h.Hypervisor.CreateContainer(rund.DefaultConfig("ct", 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Start(rund.PinOnDemand); err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateVStellar(c, h.RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{NumHosts: 0}); err == nil {
		t.Error("zero-host cluster accepted")
	}
	if _, err := NewCluster(ClusterConfig{
		NumHosts: 10,
		Fabric:   fabric.Config{Segments: 2, HostsPerSegment: 2, Aggs: 4},
	}); err == nil {
		t.Error("cluster larger than its fabric accepted")
	}
}

func TestClusterRemoteHostMemoryWrite(t *testing.T) {
	cl := newTestCluster(t, 4)
	_, srcDev := deviceOn(t, cl, 0)
	ctB, dstDev := deviceOn(t, cl, 3) // cross-segment

	gva, _, err := ctB.AllocGuestBuffer(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := dstDev.RegisterHostMemory(gva)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := dstDev.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.ConnectRDMA(0, 3, srcDev, dstDev, qp, mr, multipath.OBS, 128)
	if err != nil {
		t.Fatal(err)
	}
	var out RemoteWrite
	var werr error
	gotDone := false
	conn.Write(gva.Start, 2<<20, func(r RemoteWrite, err error) {
		out, werr, gotDone = r, err, true
	})
	cl.Engine.RunAll()
	if !gotDone {
		t.Fatal("remote write never completed")
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if out.WireTime <= 0 {
		t.Error("no wire time")
	}
	if out.Placement.Route != pcie.RouteToMemory {
		t.Errorf("placement route = %v", out.Placement.Route)
	}
	if got := conn.Wire.PeerReceivedBytes(); got != 2<<20 {
		t.Errorf("wire delivered %d bytes", got)
	}
	conn.Close()
}

func TestClusterRemoteGDRWrite(t *testing.T) {
	cl := newTestCluster(t, 2)
	_, srcDev := deviceOn(t, cl, 0)
	_, dstDev := deviceOn(t, cl, 1)

	gmem, err := cl.Hosts[1].GPUs[0].AllocDeviceMemory(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gva := addr.NewGVARange(0x7fff00000000, 8<<20)
	mr, err := dstDev.RegisterGPUMemory(gva, gmem)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := dstDev.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.ConnectRDMA(0, 1, srcDev, dstDev, qp, mr, multipath.OBS, 64)
	if err != nil {
		t.Fatal(err)
	}
	var route pcie.Route
	conn.Write(gva.Start, 1<<20, func(r RemoteWrite, err error) {
		if err != nil {
			t.Error(err)
		}
		route = r.Placement.Route
	})
	cl.Engine.RunAll()
	if route != pcie.RouteP2PDirect {
		t.Errorf("cross-host GDR placement route = %v, want p2p-direct", route)
	}
}

func TestClusterPlacementErrorSurfaces(t *testing.T) {
	cl := newTestCluster(t, 2)
	_, srcDev := deviceOn(t, cl, 0)
	ctB, dstDev := deviceOn(t, cl, 1)
	gva, _, _ := ctB.AllocGuestBuffer(addr.PageSize2M)
	mr, err := dstDev.RegisterHostMemory(gva)
	if err != nil {
		t.Fatal(err)
	}
	// A QP in a different PD: the remote placement must report the
	// isolation violation through the completion.
	otherDev, err := cl.Hosts[1].CreateVStellar(ctB, cl.Hosts[1].RNICs[0])
	if err != nil {
		t.Fatal(err)
	}
	badQP, err := otherDev.CreateQP()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.ConnectRDMA(0, 1, srcDev, dstDev, badQP, mr, multipath.OBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	conn.Write(gva.Start, 4096, func(_ RemoteWrite, err error) { werr = err })
	cl.Engine.RunAll()
	if werr == nil {
		t.Fatal("cross-PD remote write did not surface an error")
	}
}

func TestClusterFlowIDsUnique(t *testing.T) {
	cl := newTestCluster(t, 2)
	_, srcDev := deviceOn(t, cl, 0)
	ctB, dstDev := deviceOn(t, cl, 1)
	gva, _, _ := ctB.AllocGuestBuffer(addr.PageSize2M)
	mr, _ := dstDev.RegisterHostMemory(gva)
	qp, _ := dstDev.CreateQP()
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		conn, err := cl.ConnectRDMA(0, 1, srcDev, dstDev, qp, mr, multipath.OBS, 8)
		if err != nil {
			t.Fatal(err)
		}
		if seen[conn.Flow] {
			t.Fatal("duplicate flow id")
		}
		seen[conn.Flow] = true
	}
}

// Ensure transport config plumbs through.
func TestClusterTransportConfig(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		NumHosts:  2,
		Host:      HostConfig{MemoryBytes: 8 << 30, GPUMemoryBytes: 1 << 30},
		Fabric:    fabric.Config{Segments: 2, Aggs: 4, HostLinkBW: 1e9, FabricLinkBW: 1e9, LinkDelay: time.Microsecond, QueueLimit: 1 << 20, ECNThreshold: 256 << 10},
		Transport: transport.Config{MTU: 8192},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.eps[0].Config().MTU != 8192 {
		t.Error("transport config not applied")
	}
}
