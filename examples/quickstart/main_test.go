package main

// Example pins the tour's printed figures: a change to the boot time,
// the pinned bytes, a write's route or its latency fails go test.
func Example() {
	main()
	// Output:
	// container booted in 3.4 s (virtual) with 0 B pinned
	// vStellar device 0 up in 1.5 s, doorbell at GPA(0x200000000000)
	// registered 4 MiB; container has 4 MiB pinned (of 262144 MiB RAM)
	// RDMA write 64 KiB: route=memory latency=2.845µs
	// GDR write 1 MiB: route=p2p-direct latency=20.474µs
	// device destroyed; host now has 0 devices
}
