//go:build !amd64 && !arm64

package sim

import "unsafe"

// prefetch is a no-op where no prefetch instruction is wired up.
func prefetch(unsafe.Pointer) {}
