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
//	stellarctl -churn 4              # serverless churn fleet across 4 hosts
//	stellarctl -churn 4 -checkpoint d -resume   # crash-safe fleet report
//
// With -checkpoint DIR the churn fleet report is committed to DIR at
// its quiescent boundary (the fleet fully drained); -resume replays a
// committed report instead of recomputing it, and a SIGINT during the
// run checkpoints the completed report before exiting 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/addr"
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/churn"
	stellar "repro/internal/core"
	"repro/internal/iommu"
	"repro/internal/jobgraph"
	"repro/internal/perftest"
	"repro/internal/rund"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vnet"
)

func main() {
	var (
		devices   = flag.Int("devices", 8, "vStellar devices to create")
		legacyVFs = flag.Int("legacy-vfs", 0, "also provision SR-IOV VFs and try to enable GDR on each")
		spotcheck = flag.Bool("spotcheck", false, "run data-path spot checks")
		tcp       = flag.Bool("tcp", false, "compare the non-RDMA (TCP) datapaths")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
		traceTxt  = flag.String("trace-txt", "", "write a plain-text event timeline")
		seed      = flag.Uint64("seed", 42, "simulation seed (drives chaos jitter and any seeded machinery)")
		chaosFlag = flag.String("chaos", "", "play a chaos scenario JSON file (NIC faults) against this host's RNICs")
		graphFlag = flag.String("jobgraph", "", "validate a job-graph JSON file and print its stats, then exit")
		shards    = flag.Int("shards", 1, "engine shards for the -churn fleet, at most one per host (results are byte-identical at any count)")
		churnFlag = flag.Int("churn", 0, "run a serverless churn fleet across N hosts and print cold-start stats, then exit")
		ckptFlag  = flag.String("checkpoint", "", "checkpoint directory for the -churn fleet report (crash-safe commit at the drained boundary)")
		resume    = flag.Bool("resume", false, "with -checkpoint, replay a committed fleet report instead of recomputing it")
	)
	flag.Parse()

	if *graphFlag != "" {
		graphReport(*graphFlag)
		return
	}

	if *churnFlag > 0 {
		churnReport(*churnFlag, *seed, *shards, *ckptFlag, *resume)
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

	if *tcp {
		tcpReport()
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

// churnReport runs a small serverless churn fleet — RunD MicroVMs under
// PVDMA on-demand pinning over a shared device inventory — and prints
// the cold-start picture an operator would pull from a host fleet.
//
// With a checkpoint directory the rendered report is committed at the
// fleet's quiescent boundary (every lifecycle drained, the engine
// empty); a resumed invocation with the same configuration replays it
// from disk. The fleet itself is one cell — its only boundary is the
// drained edge — so a SIGINT mid-run cannot save partial work, but one
// arriving before the commit still checkpoints the finished report
// before exiting.
func churnReport(hosts int, seed uint64, shards int, ckptDir string, resume bool) {
	cfg := churn.DefaultConfig()
	cfg.Hosts = hosts
	cfg.Window = 20 * time.Second

	const cellID = "churn-fleet"
	ctx := context.Background()
	var store *checkpoint.Store
	if ckptDir != "" {
		fp := checkpoint.Fingerprint{
			Seed:     seed,
			Shards:   shards,
			Workload: fmt.Sprintf("churn:hosts=%d,window=%v", hosts, cfg.Window),
		}
		var err error
		store, err = checkpoint.Open(ckptDir, fp, resume, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "stellarctl: "+format+"\n", args...)
		})
		if err != nil {
			fail(err)
		}
		if payload, meta, ok, _ := store.Lookup(cellID); ok {
			os.Stdout.Write(payload)
			fmt.Fprintf(os.Stderr, "stellarctl: fleet report resumed from checkpoint %s (%d sim events recorded)\n",
				ckptDir, meta.Events)
			return
		}
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	}

	se := sim.NewShardedEngine(seed, sim.SchedulerWheel, min(shards, hosts))
	rep, err := churn.Run(se, cfg)
	if err != nil {
		fail(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "serverless churn fleet: %d hosts, %v window, seed %d\n", hosts, cfg.Window, seed)
	fmt.Fprintf(&b, "  lifecycles: %d arrivals, %d cold starts, %d teardowns",
		rep.Arrivals, rep.ColdStarts, rep.Teardowns)
	if rep.PoolFailures+rep.MemFailures > 0 {
		fmt.Fprintf(&b, " (%d rejected)", rep.PoolFailures+rep.MemFailures)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  cold start: p50=%.2fs p99=%.2fs p999=%.2fs max=%.2fs\n",
		rep.ColdStart.P50, rep.ColdStart.P99, rep.ColdStart.P999, rep.ColdStart.Max)
	fmt.Fprintf(&b, "  spans p99:  vf=%.3fs pin=%.3fs vnet=%.3fs teardown=%.2fs\n",
		rep.VFSpan.P99, rep.PinSpan.P99, rep.VNetSpan.P99, rep.Teardown.P99)
	fmt.Fprintf(&b, "  pvdma:      %d evictions, peak pinned %.1f GiB/host\n",
		rep.Evictions, float64(rep.PeakPinned)/(1<<30))
	fmt.Fprintf(&b, "  dev pool:   peak %d held, %d queued, %d grants waited\n",
		rep.PeakOccupancy, rep.PeakQueued, rep.WaitedGrants)
	text := b.String()
	fmt.Print(text)

	if store != nil {
		meta := checkpoint.CellMeta{Events: se.Fired(), VirtualNS: int64(se.Now())}
		_ = store.Commit(cellID, []byte(text), meta)
		for _, d := range store.Degradations() {
			fmt.Fprintf(os.Stderr, "stellarctl: checkpoint degradation: %v\n", d)
		}
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "stellarctl: interrupted: fleet report checkpointed in %s; rerun with -resume to replay it\n", ckptDir)
			os.Exit(130)
		}
	}
}

func tcpReport() {
	fmt.Println("\nTCP datapath comparison (100G port):")
	for _, c := range []struct {
		stack vnet.Stack
		mode  iommu.Mode
		iotlb int
		label string
	}{
		{vnet.StackVFIO, iommu.ModePT, 0, "vfio-vf, iommu=pt"},
		{vnet.StackVirtioSF, iommu.ModePT, 0, "virtio-sf, iommu=pt (Stellar's choice)"},
		{vnet.StackVFIO, iommu.ModeNoPT, 512, "vfio-vf, iommu=nopt, small IOTLB (Problem 4)"},
	} {
		u, err := iommu.New(iommu.Config{Mode: c.mode, ATSEnabled: c.mode == iommu.ModeNoPT, IOTLBCapacity: c.iotlb})
		if err != nil {
			fail(err)
		}
		cfg := vnet.DefaultConfig(c.stack)
		cfg.Buffers = 8192
		dev, err := vnet.New(cfg, u, 0x10000000, 0x1000000)
		if err != nil {
			fail(err)
		}
		bw, err := dev.Throughput()
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %-46s %6.1f Gbps\n", c.label, bw*8/1e9)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stellarctl:", err)
	os.Exit(1)
}
