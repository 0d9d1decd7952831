package stellar

import (
	"fmt"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Cluster assembles multiple Stellar hosts on one data-center fabric:
// the full vertical of the paper. Host-local PCIe/RNIC/container state
// lives in each Host; the wire between them is the discrete-event
// network with the multi-path transport. RDMAConn stitches the two
// together: bytes travel the sprayed fabric, then the receiving RNIC's
// RX pipeline places them (eMTT for GDR, IOMMU for host memory).
type Cluster struct {
	Engine *sim.Engine
	Fabric *fabric.Fabric
	Hosts  []*Host

	eps      []*transport.Endpoint
	nextFlow uint64
}

// ClusterConfig sizes a cluster.
type ClusterConfig struct {
	// NumHosts is the number of servers; each attaches to one fabric
	// host port, in segment order.
	NumHosts int
	// Host configures each server (DefaultHostConfig if zero).
	Host HostConfig
	// Fabric configures the network; HostsPerSegment is derived when
	// zero so the hosts split evenly across two segments.
	Fabric fabric.Config
	// Transport configures every endpoint.
	Transport transport.Config
	// Seed drives the engine.
	Seed uint64
}

// NewCluster builds the hosts and the fabric.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumHosts < 1 {
		return nil, fmt.Errorf("stellar: cluster needs hosts, got %d", cfg.NumHosts)
	}
	eng := sim.NewEngine(cfg.Seed)
	fcfg := cfg.Fabric
	if fcfg.Segments == 0 {
		fcfg.Segments = 2
	}
	if fcfg.HostsPerSegment == 0 {
		fcfg.HostsPerSegment = (cfg.NumHosts + fcfg.Segments - 1) / fcfg.Segments
	}
	f := fabric.New(eng, fcfg)
	if f.NumHosts() < cfg.NumHosts {
		return nil, fmt.Errorf("stellar: fabric has %d ports for %d hosts", f.NumHosts(), cfg.NumHosts)
	}
	cl := &Cluster{Engine: eng, Fabric: f, nextFlow: 1}
	for i := 0; i < cfg.NumHosts; i++ {
		h, err := NewHost(cfg.Host)
		if err != nil {
			return nil, fmt.Errorf("stellar: host %d: %w", i, err)
		}
		cl.Hosts = append(cl.Hosts, h)
		cl.eps = append(cl.eps, transport.NewEndpoint(f, fabric.HostID(i), cfg.Transport))
	}
	return cl, nil
}

// SetTracer attaches a flight recorder to the whole cluster: the engine
// (which binds the tracer's clock to virtual time), and every host's
// substrates under the process label "host<i>". Call before creating
// flows so the transport picks up traced selectors.
func (cl *Cluster) SetTracer(t *trace.Tracer) {
	cl.Engine.SetTracer(t)
	for i, h := range cl.Hosts {
		h.SetTracer(t, "host"+strconv.Itoa(i))
	}
}

// RDMAConn is a one-directional RDMA connection between vStellar
// devices on two cluster hosts.
type RDMAConn struct {
	Flow uint64
	Wire *transport.Conn

	cl     *Cluster
	src    *VStellarDevice
	dst    *VStellarDevice
	dstQP  *rnic.QP
	dstKey uint32
}

// RemoteWrite is the outcome of one cross-host RDMA write.
type RemoteWrite struct {
	// WireTime is when the last byte was acknowledged on the network.
	WireTime sim.Time
	// Placement is the receiving RNIC's RX-pipeline result.
	Placement rnic.WriteResult
}

// ConnectRDMA wires srcDev (on host srcHost) to write into dstDev's
// memory region dstMR through dstQP, spraying with alg over paths.
func (cl *Cluster) ConnectRDMA(srcHost, dstHost int, srcDev, dstDev *VStellarDevice,
	dstQP *rnic.QP, dstMR *rnic.MR, alg multipath.Algorithm, paths int) (*RDMAConn, error) {
	flow := cl.nextFlow
	cl.nextFlow++
	wire, err := transport.Connect(cl.eps[srcHost], cl.eps[dstHost], flow, alg, paths)
	if err != nil {
		return nil, err
	}
	return &RDMAConn{
		Flow: flow, Wire: wire, cl: cl,
		src: srcDev, dst: dstDev, dstQP: dstQP, dstKey: dstMR.Key,
	}, nil
}

// Write transfers size bytes starting at the remote VA: the payload
// crosses the fabric under the connection's spray policy, and on full
// acknowledgement the remote RNIC places it. done receives the combined
// outcome; errors in placement surface through done's Placement check
// and the returned error of the initial validation.
func (c *RDMAConn) Write(va, size uint64, done func(RemoteWrite, error)) {
	c.Wire.Send(size, func(at sim.Time) {
		res, err := c.dst.Write(c.dstQP, c.dstKey, va, size)
		if done != nil {
			done(RemoteWrite{WireTime: at, Placement: res}, err)
		}
	})
}

// Close releases the wire flow.
func (c *RDMAConn) Close() { c.Wire.Close() }
