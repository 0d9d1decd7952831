// Crosshost: the full vertical in one program — two Stellar servers on
// the sprayed data-center fabric, secure containers on both, and a
// cross-host GDR write: guest memory on server A, across OBS/128 paths,
// placed into server B's GPU memory by the receiving RNIC's eMTT
// without touching B's Root Complex.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/addr"
	stellar "repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/rund"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this file")
	flag.Parse()
	run(*traceOut)
}

// run builds the two servers, writes across the fabric and, when
// traceOut is set, exports the run's trace there.
func run(traceOut string) {
	hostCfg := stellar.DefaultHostConfig()
	hostCfg.MemoryBytes = 64 << 30
	hostCfg.GPUMemoryBytes = 4 << 30
	cl, err := stellar.NewCluster(stellar.ClusterConfig{
		NumHosts: 2,
		Host:     hostCfg,
		Fabric: fabric.Config{
			Segments: 2, Aggs: 60,
			HostLinkBW: 50e9, FabricLinkBW: 50e9,
			LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
		},
		Transport: transport.Config{},
		Seed:      2025,
	})
	if err != nil {
		log.Fatal(err)
	}

	var tr *trace.Tracer
	if traceOut != "" {
		tr = trace.New(0)
		cl.SetTracer(tr)
	}

	// Containers and vStellar devices on both servers.
	mkDev := func(i int) (*rund.Container, *stellar.VStellarDevice) {
		h := cl.Hosts[i]
		ct, err := h.Hypervisor.CreateContainer(rund.DefaultConfig(fmt.Sprintf("pod-%d", i), 16<<30))
		if err != nil {
			log.Fatal(err)
		}
		boot, err := ct.Start(rund.PinOnDemand)
		if err != nil {
			log.Fatal(err)
		}
		dev, err := h.CreateVStellar(ct, h.RNICs[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("server %d: pod booted in %.1f s, vStellar device %d ready\n", i, boot.Seconds(), dev.ID)
		return ct, dev
	}
	_, devA := mkDev(0)
	_, devB := mkDev(1)

	// Receiver-side GDR region on server B's GPU.
	gmem, err := cl.Hosts[1].GPUs[0].AllocDeviceMemory(64 << 20)
	if err != nil {
		log.Fatal(err)
	}
	gva := addr.NewGVARange(0x7fff00000000, 64<<20)
	mr, err := devB.RegisterGPUMemory(gva, gmem)
	if err != nil {
		log.Fatal(err)
	}
	qp, err := devB.CreateQP()
	if err != nil {
		log.Fatal(err)
	}

	conn, err := cl.ConnectRDMA(0, 1, devA, devB, qp, mr, multipath.OBS, 128)
	if err != nil {
		log.Fatal(err)
	}

	const payload = 32 << 20
	conn.Write(gva.Start, payload, func(r stellar.RemoteWrite, err error) {
		if err != nil {
			log.Fatal(err)
		}
		gbps := float64(payload) * 8 / r.WireTime.Seconds() / 1e9
		fmt.Printf("\ncross-host GDR write of %d MiB:\n", payload>>20)
		fmt.Printf("  wire: completed at %v (%.0f Gbps over 128 sprayed paths)\n", r.WireTime, gbps)
		fmt.Printf("  placement: route=%s, %d ATC misses (eMTT bypassed the Root Complex)\n",
			r.Placement.Route, r.Placement.ATCMisses)
	})
	cl.Engine.RunAll()

	// How evenly did the spray load the fabric?
	fmt.Printf("  fabric: segment-0 uplink imbalance %.2f across 60 aggregation switches\n",
		cl.Fabric.Imbalance(0))

	if tr != nil {
		if err := tr.WriteJSONFile(traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  trace: %d events -> %s (open in ui.perfetto.dev)\n", tr.Len(), traceOut)
	}
}
