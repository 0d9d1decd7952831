package main

// Example pins the cross-host write's printed figures: a change to the
// wire time, the placement route or the spray's uplink imbalance fails
// go test.
func Example() {
	run("")
	// Output:
	// server 0: pod booted in 1.6 s, vStellar device 0 ready
	// server 1: pod booted in 1.6 s, vStellar device 0 ready
	//
	// cross-host GDR write of 32 MiB:
	//   wire: completed at 883.1µs (304 Gbps over 128 sprayed paths)
	//   placement: route=p2p-direct, 0 ATC misses (eMTT bypassed the Root Complex)
	//   fabric: segment-0 uplink imbalance 0.91 across 60 aggregation switches
}
