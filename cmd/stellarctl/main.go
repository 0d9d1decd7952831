// Command stellarctl builds a simulated Stellar GPU server and lets an
// operator inspect it: PCIe layout, LUT occupancy, vStellar devices,
// MTT state, and spot-check data-path operations. It is the
// demonstration the paper's operators would run on a host, compressed
// into one command.
//
// Usage:
//
//	stellarctl                       # default host, summary
//	stellarctl -devices 100          # spin up 100 vStellar devices first
//	stellarctl -legacy-vfs 35        # show the legacy stack's LUT limit
//	stellarctl -spotcheck            # run GDR and host-memory writes
//	stellarctl -jobgraph g.json      # validate a job-graph file, print stats
//	stellarctl -chaos examples/chaos/nic-reset.json   # NIC faults on this host
//
// Fleet and datapath reports are experiments, not host inspection:
// `stellarbench -exp fig6-fleet,tcp-path` prints them.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/addr"
	"repro/internal/chaos"
	stellar "repro/internal/core"
	"repro/internal/jobgraph"
	"repro/internal/perftest"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		devices   = flag.Int("devices", 8, "vStellar devices to create")
		legacyVFs = flag.Int("legacy-vfs", 0, "also provision SR-IOV VFs and try to enable GDR on each")
		spotcheck = flag.Bool("spotcheck", false, "run data-path spot checks")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
		traceTxt  = flag.String("trace-txt", "", "write a plain-text event timeline")
		seed      = flag.Uint64("seed", 42, "simulation seed (drives chaos jitter and any seeded machinery)")
		chaosFlag = flag.String("chaos", "", "play a chaos scenario JSON file (NIC faults) against this host's RNICs")
		graphFlag = flag.String("jobgraph", "", "validate a job-graph JSON file and print its stats, then exit")
	)
	flag.Parse()

	if *graphFlag != "" {
		graphReport(*graphFlag)
		return
	}

	cfg := stellar.DefaultHostConfig()
	cfg.MemoryBytes = 512 << 30
	cfg.GPUMemoryBytes = 8 << 30
	host, err := stellar.NewHost(cfg)
	if err != nil {
		fail(err)
	}
	var tr *trace.Tracer
	if *traceOut != "" || *traceTxt != "" {
		tr = trace.New(0)
		host.SetTracer(tr, "host0")
	}

	fmt.Println("host layout:")
	for i, sw := range host.Switches {
		fmt.Printf("  switch %d: %d endpoints, LUT %d/%d\n",
			i, len(sw.Endpoints()), sw.LUTLen(), sw.LUTCapacity())
	}
	for _, r := range host.RNICs {
		fmt.Printf("  %s: pf=%s ports=%d x %.0f Gbps, eMTT=%v\n",
			r.Name(), r.PF().BDF(), r.Config().NumPorts,
			r.Config().PortBandwidth*8/1e9, r.Config().EMTT)
	}
	fmt.Printf("  gpus: %d x %d GiB\n", len(host.GPUs), cfg.GPUMemoryBytes>>30)

	ct, err := host.Hypervisor.CreateContainer(rund.DefaultConfig("pod-0", 64<<30))
	if err != nil {
		fail(err)
	}
	boot, err := ct.Start(rund.PinOnDemand)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\ncontainer pod-0: 64 GiB, PVDMA mode, booted in %.1f s (virtual)\n", boot.Seconds())

	for i := 0; i < *devices; i++ {
		d, err := host.CreateVStellar(ct, host.RNICs[i%len(host.RNICs)])
		if err != nil {
			fail(err)
		}
		if i < 4 || i == *devices-1 {
			fmt.Printf("  vstellar dev %d on %s: pd=%d vdb=%v (shm window) create=%.1fs\n",
				d.ID, d.RNIC.Name(), d.PD(), d.DoorbellGPA(), d.CreateLatency.Seconds())
		} else if i == 4 {
			fmt.Println("  ...")
		}
	}
	fmt.Printf("vstellar devices: %d / %d limit; switch LUTs unchanged\n", host.NumDevices(), host.DeviceLimit())

	if *legacyVFs > 0 {
		fmt.Printf("\nlegacy SR-IOV comparison: provisioning %d VFs on %s\n", *legacyVFs, host.RNICs[0].Name())
		if err := host.RNICs[0].SetNumVFs(*legacyVFs); err != nil {
			fmt.Printf("  SetNumVFs: %v\n", err)
		} else {
			enabled := 0
			for _, vf := range host.RNICs[0].VFs() {
				if err := vf.EnableGDR(); err != nil {
					fmt.Printf("  vf%d EnableGDR: %v\n", vf.Index, err)
					break
				}
				enabled++
			}
			fmt.Printf("  GDR-capable VFs: %d (LUT %d/%d)\n",
				enabled, host.Switches[0].LUTLen(), host.Switches[0].LUTCapacity())
		}
	}

	if *spotcheck {
		fmt.Println("\nspot checks:")
		d, err := host.CreateVStellar(ct, host.RNICs[0])
		if err != nil {
			fail(err)
		}
		qp, err := d.CreateQP()
		if err != nil {
			fail(err)
		}
		gva, _, err := ct.AllocGuestBuffer(addr.PageSize2M)
		if err != nil {
			fail(err)
		}
		mr, err := d.RegisterHostMemory(gva)
		if err != nil {
			fail(err)
		}
		res, err := d.Write(qp, mr.Key, gva.Start, 64<<10)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  host-memory write 64KB: route=%s latency=%v\n", res.Route, res.Latency)

		gmem, err := host.GPUs[0].AllocDeviceMemory(16 << 20)
		if err != nil {
			fail(err)
		}
		ggva := addr.NewGVARange(0x7fff00000000, 16<<20)
		gmr, err := d.RegisterGPUMemory(ggva, gmem)
		if err != nil {
			fail(err)
		}
		gres, err := d.Write(qp, gmr.Key, ggva.Start, 1<<20)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  GDR write 1MB: route=%s latency=%v (%.0f Gbps serialised)\n",
			gres.Route, gres.Latency, perftest.Gbps(float64(1<<20)/gres.SerialCost.Seconds()))
		fmt.Printf("  pinned guest memory: %d MiB of %d MiB (on demand)\n",
			ct.GuestMemory().PinnedBytes()>>20, ct.Config().MemoryBytes>>20)
	}

	if *chaosFlag != "" {
		sc, err := chaos.LoadFile(*chaosFlag)
		if err != nil {
			fail(err)
		}
		eng := sim.NewEngine(*seed)
		if tr != nil {
			eng.SetTracer(tr)
		}
		ce := chaos.New(eng, nil) // host-only: link faults don't bind here
		for _, r := range host.RNICs {
			ce.RegisterNIC(r)
		}
		if err := ce.Play(sc); err != nil {
			fail(err)
		}
		eng.RunAll()
		fmt.Printf("\nchaos scenario %q (seed %d): %d actions\n", sc.Name, *seed, len(ce.Log()))
		for _, f := range ce.Log() {
			fmt.Printf("  t=%v %-7s %-14s %s\n", f.At, f.Phase, f.Event.Kind, f.Detail)
		}
	}

	if tr != nil {
		if *traceOut != "" {
			if err := tr.WriteJSONFile(*traceOut); err != nil {
				fail(err)
			}
			fmt.Printf("\ntrace: %d events (%d recorded, %d overwritten) -> %s (open in ui.perfetto.dev)\n",
				tr.Len(), tr.Total(), tr.Dropped(), *traceOut)
		}
		if *traceTxt != "" {
			if err := tr.WriteTextFile(*traceTxt); err != nil {
				fail(err)
			}
			fmt.Printf("trace: %d events (%d recorded, %d overwritten) -> %s\n",
				tr.Len(), tr.Total(), tr.Dropped(), *traceTxt)
		}
	}
}

func graphReport(path string) {
	g, err := jobgraph.LoadFile(path)
	if err != nil {
		fail(err)
	}
	st := g.Stats()
	fmt.Printf("job graph %q: valid\n", g.Name)
	if g.Comment != "" {
		fmt.Printf("  %s\n", g.Comment)
	}
	fmt.Printf("  ranks:   %d\n", g.Ranks)
	fmt.Printf("  ops:     %d (%d compute, %d send, %d recv, %d collective)\n",
		st.Ops, st.ByKind[jobgraph.OpCompute], st.ByKind[jobgraph.OpSend],
		st.ByKind[jobgraph.OpRecv], st.ByKind[jobgraph.OpCollective])
	fmt.Printf("  wire:    %.2f MB over %d send pair(s)\n", float64(st.Bytes)/1e6, st.PairsUsed)
	fmt.Printf("  compute: %v total across ranks\n", st.Compute)
	fmt.Printf("  max op fan-in: %d\n", st.MaxFanIn)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stellarctl:", err)
	os.Exit(1)
}
