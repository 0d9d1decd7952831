package experiments

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/iommu"
	"repro/internal/multipath"
	"repro/internal/transport"
	"repro/internal/vnet"
)

// TCPPath regenerates the §4 claim for non-RDMA traffic: the
// virtio/SF/VxLAN stack costs ~5% versus vfio/VF/VxLAN, and Problem ④'s
// nopt requirement degrades host TCP once the DMA buffer pool outgrows
// the IOTLB.
func TCPPath(s *Session) (*Table, error) {
	t := &Table{
		ID:     "tcp-path",
		Title:  "Non-RDMA (TCP) datapath: virtio/SF penalty (§4) and nopt degradation (Problem ④)",
		Header: []string{"stack", "iommu", "iotlb", "throughput (Gbps)"},
	}
	type cse struct {
		stack vnet.Stack
		mode  iommu.Mode
		iotlb int
		label string
	}
	cases := []cse{
		{vnet.StackVFIO, iommu.ModePT, 0, "pt"},
		{vnet.StackVirtioSF, iommu.ModePT, 0, "pt"},
		{vnet.StackVFIO, iommu.ModeNoPT, 16384, "nopt/large"},
		{vnet.StackVFIO, iommu.ModeNoPT, 512, "nopt/small"},
	}
	for _, c := range cases {
		u, err := iommu.New(iommu.Config{Mode: c.mode, ATSEnabled: c.mode == iommu.ModeNoPT, IOTLBCapacity: c.iotlb})
		if err != nil {
			return nil, err
		}
		cfg := vnet.DefaultConfig(c.stack)
		cfg.Buffers = 8192
		dev, err := vnet.New(cfg, u, 0x10000000, 0x1000000)
		if err != nil {
			return nil, err
		}
		bw, err := dev.Throughput()
		if err != nil {
			return nil, err
		}
		t.AddRow(c.stack.String(), c.label, fmt.Sprintf("%d", c.iotlb),
			fmt.Sprintf("%.1f", bw*8/1e9))
	}
	t.Notes = append(t.Notes,
		"virtio/SF trades ~5% of TCP throughput for dynamic device creation; nopt with a small IOTLB reproduces the host-TCP regression of Problem ④")
	return t, nil
}

// MoEAllToAll probes §9's forward-looking claim: expert-parallel
// all-to-all is burstier and higher-entropy than AllReduce; spraying
// still wins over single-path, and the path-aware policy is measured
// alongside for the day "advanced multi-path algorithms may become
// necessary".
func MoEAllToAll(s *Session) (*Table, error) {
	t := &Table{
		ID:     "moe-alltoall",
		Title:  "MoE expert-parallel all-to-all across segments (§9 outlook)",
		Header: []string{"policy", "paths", "per-GPU egress bw (GB/s)"},
	}
	for _, tc := range []struct {
		alg   multipath.Algorithm
		paths int
	}{
		{multipath.SinglePath, 1},
		{multipath.OBS, 128},
		{multipath.PathAware, 128},
	} {
		eng, f, eps := s.cluster(netConfig(8, 60), transport.Config{})
		if err := s.armChaos(eng, f); err != nil {
			return nil, err
		}
		// Every ordered pair of hosts exchanges one 1 MiB shard.
		const shard = 1 << 20
		var conns []*transport.Conn
		for i, src := range eps {
			for j, dst := range eps {
				if i == j {
					continue
				}
				c, err := transport.Connect(src, dst, uint64(len(conns)+1), tc.alg, tc.paths)
				if err != nil {
					return nil, err
				}
				conns = append(conns, c)
			}
		}
		var res collective.Result
		collective.SendAll(eng, conns, shard, func(r collective.Result) { res = r })
		eng.RunAll()
		if res.End == 0 {
			return nil, fmt.Errorf("moe-alltoall: %s exchange incomplete", tc.alg)
		}
		// Each GPU's egress is its N-1 shards over the exchange.
		egress := uint64(len(eps)-1) * shard
		t.AddRow(tc.alg.String(), fmt.Sprintf("%d", tc.paths),
			fmt.Sprintf("%.2f", float64(egress)/res.End.Sub(res.Start).Seconds()/1e9))
	}
	t.Notes = append(t.Notes,
		"all-to-all's N^2 flows give ECMP more entropy than AllReduce, but pinned paths still collide; spraying holds its margin")
	return t, nil
}
