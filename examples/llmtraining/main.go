// LLM training: the §8.2 end-to-end experiment at example scale — a
// 1,024-GPU (128-host) Megatron job whose data-parallel AllReduce runs
// on the simulated HPN fabric, comparing the Stellar transport (OBS,
// 128 sprayed paths) against a CX7-style single-path ECMP baseline
// under both cluster-scheduling strategies.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/fabric"
	"repro/internal/multipath"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	model := workload.Table1()[0] // Megatron Llama-33B
	fmt.Printf("model: %s (%d GPUs in production strategy)\n\n", model, model.GPUs())

	for _, placement := range []workload.Placement{workload.Reranked, workload.RandomRanking} {
		fmt.Printf("placement: %v\n", placement)
		speeds := map[string]float64{}
		for _, stack := range []struct {
			name  string
			alg   multipath.Algorithm
			paths int
		}{
			{"cx7 single-path", multipath.SinglePath, 128},
			{"stellar obs/128", multipath.OBS, 128},
		} {
			eng := sim.NewEngine(7)
			f := fabric.New(eng, fabric.Config{
				Segments: 2, HostsPerSegment: 64, Aggs: 60,
				HostLinkBW: 50e9, FabricLinkBW: 50e9,
				LinkDelay: 2 * time.Microsecond, QueueLimit: 16 << 20, ECNThreshold: 512 << 10,
			})
			var eps []*transport.Endpoint
			for h := 0; h < f.NumHosts(); h++ {
				eps = append(eps, transport.NewEndpoint(f, fabric.HostID(h),
					transport.Config{MTU: 16 << 10, InitialWindow: 1 << 20}))
			}
			res, err := workload.RunStep(eng, f, eps, workload.JobConfig{
				Model: model, Platform: workload.DefaultPlatform(),
				Alg: stack.alg, Paths: stack.paths,
				Placement: placement, PlacementSeed: 51,
				SimBytes: 24 << 20,
			})
			if err != nil {
				log.Fatal(err)
			}
			speeds[stack.name] = res.Speed()
			fmt.Printf("  %-16s busBW/GPU=%.2f GB/s  comm=%.2fs  step=%.2fs  (%.4f steps/s)\n",
				stack.name, res.BusBW/1e9, res.CommTime.Seconds(), res.StepTime.Seconds(), res.Speed())
		}
		imp := speeds["stellar obs/128"]/speeds["cx7 single-path"] - 1
		fmt.Printf("  => stellar improvement: %+.2f%%\n\n", imp*100)
	}
	fmt.Println("expected shape (paper Fig. 16): negligible gap when reranked, ~6% average gap under random ranking")
}
