package multipath_test

import (
	"fmt"

	"repro/internal/multipath"
	"repro/internal/sim"
)

// ExampleNew shows the production configuration: Oblivious Packet
// Spraying over 128 paths, one selector per connection.
func ExampleNew() {
	sel := multipath.New(multipath.OBS, 128, sim.NewRNG(42))
	fmt.Println(multipath.OBS, sel.NumPaths())
	inRange := true
	for i := 0; i < 1000; i++ {
		if p := sel.NextPath(); p < 0 || p >= 128 {
			inRange = false
		}
	}
	fmt.Println("all picks in range:", inRange)
	// Output:
	// obs 128
	// all picks in range: true
}

// ExampleAlgorithms enumerates the §7.2 policy sweep.
func ExampleAlgorithms() {
	for _, a := range multipath.Algorithms() {
		fmt.Println(a)
	}
	// Output:
	// single-path
	// rr
	// dwrr
	// best-rtt
	// mprdma
	// obs
}
