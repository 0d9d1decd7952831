//go:build amd64 || arm64

package sim

import "unsafe"

// prefetch asks the CPU to pull the cache line at p into L1 ahead of
// use (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It never faults
// and has no effect the program can observe besides timing.
//
//go:noescape
func prefetch(p unsafe.Pointer)
