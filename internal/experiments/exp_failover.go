package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
)

// LinkFailRecovery reproduces §7.2's two-stage failure handling on a
// timeline: a ToR uplink dies mid-transfer; the 250 µs RTO immediately
// repaths lost packets (throughput barely moves because only 1/60 of
// sprayed packets used the link), and the control plane's BGP reroute
// later steers the path mapping away so retransmissions stop entirely.
func LinkFailRecovery(s *Session) (*Table, error) {
	t := &Table{
		ID:     "linkfail-recovery",
		Title:  "Full link failure: RTO instant recovery, then BGP reroute (§7.2)",
		Header: []string{"window", "phase", "goodput (GB/s)", "retransmits"},
	}
	const (
		window     = 2 * time.Millisecond
		failAt     = 4 * time.Millisecond
		rerouteLag = 8 * time.Millisecond
		windows    = 10
	)
	eng, f, eps := s.cluster(netConfig(8, 60), transport.Config{MTU: 8 << 10, InitialWindow: 1 << 20})
	if err := s.armChaos(eng, f); err != nil {
		return nil, err
	}
	// Eight cross-segment flows spraying over all 60 aggs.
	var conns []*transport.Conn
	for i := 0; i < 8; i++ {
		c, err := transport.Connect(eps[i], eps[8+i], uint64(1+i), multipath.OBS, 128)
		if err != nil {
			return nil, err
		}
		c.Send(1<<30, nil) // effectively unbounded for the timeline
		conns = append(conns, c)
	}
	// The uplink dies at failAt; the control plane withdraws it
	// rerouteLag later. Played after the sends, so same-instant events
	// keep their order.
	sc := chaos.NewScenario("linkfail-recovery").
		LinkDown(failAt, fabric.Uplink(0, 0), 0).
		Reroute(failAt+rerouteLag, fabric.Uplink(0, 0), 0)
	if err := chaos.New(eng, f).Play(sc); err != nil {
		return nil, err
	}

	received := func() uint64 {
		var sum uint64
		for _, c := range conns {
			sum += c.PeerReceivedBytes()
		}
		return sum
	}
	retx := func() uint64 {
		var sum uint64
		for _, c := range conns {
			sum += c.Retransmits
		}
		return sum
	}

	prevBytes, prevRetx := uint64(0), uint64(0)
	for w := 1; w <= windows; w++ {
		eng.Run(sim.Time(w) * sim.Time(window))
		nowBytes, nowRetx := received(), retx()
		phase := "healthy"
		end := time.Duration(w) * window
		switch {
		case end > failAt+rerouteLag:
			phase = "rerouted"
		case end > failAt:
			phase = "rto-recovery"
		}
		gp := float64(nowBytes-prevBytes) / window.Seconds()
		t.AddRow(fmt.Sprintf("%v", end), phase,
			fmt.Sprintf("%.1f", gp/1e9),
			fmt.Sprintf("%d", nowRetx-prevRetx))
		prevBytes, prevRetx = nowBytes, nowRetx
	}
	for _, c := range conns {
		c.Close()
	}
	t.Notes = append(t.Notes,
		"during rto-recovery only ~1/60 of sprayed packets hit the dead link and are repathed in 250 us; after the BGP reroute the path map avoids it and retransmissions stop")
	return t, nil
}
