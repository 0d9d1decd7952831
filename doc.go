// Package repro is a from-scratch Go reproduction of "Alibaba Stellar:
// A New Generation RDMA Network for Cloud AI" (SIGCOMM 2025): the
// vStellar virtualization framework (PVDMA, eMTT, 128-path packet
// spray) together with every substrate it depends on — memory
// translation, PCIe fabric, RNIC, RunD secure containers, and a
// data-center network simulator — plus the baselines the paper compares
// against.
//
// Entry points:
//
//   - internal/core (package stellar): the assembled framework.
//   - cmd/stellarbench: regenerate any table or figure (-exp fig9).
//   - examples/: runnable scenarios (quickstart, crosshost), each with
//     an Example test that pins its output.
//   - bench_test.go: testing.B benchmarks, one per table and figure.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
