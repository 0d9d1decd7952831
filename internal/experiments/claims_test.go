package experiments

import (
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The paper's claims, and what this repository adds to them, as one
// table checked against the seed-42 batch. EXPERIMENTS.md carries the
// rendered table between its claims markers (TestClaimsDoc).

// sel selects what a claim reads from a table: the rows whose leading
// columns equal key ("*" matches any value), narrowed to the nth of them
// when nth is set (1-based, -1 for the last), the cell under header
// col, one "/"-separated field of it when field is set (1-based), and
// an aggregate over the selected rows when agg is set.
type sel struct {
	exp   string // experiment; empty means the claim's own
	key   []string
	col   string
	nth   int
	field int
	agg   string // "", "mean", "min", "max" or "count"
}

func at(col string, key ...string) sel { return sel{col: col, key: key} }

func (s sel) in(exp string) sel   { s.exp = exp; return s }
func (s sel) row(n int) sel       { s.nth = n; return s }
func (s sel) part(k int) sel      { s.field = k; return s }
func (s sel) over(agg string) sel { s.agg = agg; return s }

// kind is one of the fixed set of checks a claim can make.
type kind int

const (
	inRange   kind = iota // lo <= v <= hi, or lo <= v/other <= hi: a tolerance or a ratio bound
	ordered               // v op other
	monotone              // each selected row's v op the next row's
	exactText             // the cell reads exactly want
	deviation             // an inRange band the paper's value lies outside
)

type check struct {
	kind   kind
	op     string // ordered, monotone: one of < <= == >= >
	other  *sel   // ordered; inRange and deviation when they bound a ratio
	lo, hi float64
	want   string  // exactText
	paper  float64 // deviation: the paper's value, in the units the band bounds
}

var inf = math.Inf(1)

func between(lo, hi float64) check { return check{kind: inRange, lo: lo, hi: hi} }
func atLeast(lo float64) check     { return between(lo, inf) }
func atMost(hi float64) check      { return between(-inf, hi) }
func is(op string, other sel) check {
	return check{kind: ordered, op: op, other: &other}
}
func ratio(other sel, lo, hi float64) check {
	return check{kind: inRange, other: &other, lo: lo, hi: hi}
}
func steps(op string) check   { return check{kind: monotone, op: op} }
func reads(want string) check { return check{kind: exactText, want: want} }

// band turns a range or ratio check into an expected deviation from
// the paper's value.
func band(k check, paper float64) check { k.kind, k.paper = deviation, paper; return k }

// claim is one row of the table: a cell of an experiment's seed-42
// output, the paper's value for it, where that value comes from (a
// section or figure, or "extension: " and why the experiment exists),
// and the check the cell must pass.
type claim struct {
	exp    string
	cell   sel
	paper  string
	source string
	check  check
}

const (
	extChurn     = "extension: Fig. 6 as a serverless fleet under pool and pin pressure"
	extScale     = "extension: Fig. 12 at 4096 hosts, across the core layer"
	extEMTT      = "extension: isolates the eMTT bypass behind Fig. 14"
	extCC        = "extension: §7.2 holds CC fixed; this sweeps its two knobs"
	extFailure   = "extension: Fig. 11 beyond random loss"
	extRecovery  = "extension: §7.2 recovery of faults spraying cannot route around"
	extMoE       = "extension: §9 outlook, expert-parallel all-to-all"
	extContended = "extension: Fig. 15/16 as four jobs on one fleet"
)

var claims = []claim{
	{"fig6", at("full-pin boot (s)", "1.6TB"), "~390 s", "§4 Fig. 6", between(300, 500)},
	{"fig6", at("pvdma boot (s)", "1.6TB"), "< 20 s", "§4 Fig. 6", atMost(20)},
	{"fig6", at("speedup", "1.6TB"), "15× (abstract), 30× (§4)", "§4 Fig. 6", atLeast(15)},
	{"fig6", at("full-pin boot (s)"), "grows with memory", "§4 Fig. 6", steps("<")},
	{"fig6", at("memory").over("count"), "16 GB to 1.6 TB", "§4 Fig. 6", between(4, 4)},

	{"fig6-fleet", at("vf/pin/vnet p99 (s)", "calib-1.6TB").part(2), "390 s pin at 1.6 TB", "§4 Fig. 6", between(370.5, 409.5)},
	{"fig6-fleet", at("evictions", "pvdma/ip-pool"), "PVDMA evicts under the pin budget", extChurn, atLeast(1)},
	{"fig6-fleet", at("cold p50/p99/p999 (s)", "pvdma/ip-pool").part(3), "pool exhaustion, not boot, sets the tail", extChurn,
		is("<", at("cold p50/p99/p999 (s)", "pin-all/excl-vf").part(3))},

	{"fig8", at("cx6-ats Gbps", "128MB"), "190 → 150 Gbps", "§5 Fig. 8", is("<", at("cx6-ats Gbps", "1MB"))},
	{"fig8", at("cx6-ats Gbps", "128MB"), "~150 Gbps", "§5 Fig. 8", between(135, 165)},
	{"fig8", at("vstellar Gbps", "128MB"), "flat", "§5 Fig. 8", ratio(at("vstellar Gbps", "1MB"), 0.98, 1.02)},
	{"fig8", at("cx6 miss-rate", "128MB"), "ATC/IOTLB misses", "§5 Fig. 8", atLeast(0.5)},
	{"fig8", at("vstellar miss-rate", "128MB"), "no eMTT misses", "§5 Fig. 8", between(0, 0)},

	{"fig9", at("max queue (KB)", "rr", "128"), "~90 % below 4 paths", "§6 Fig. 9", ratio(at("max queue (KB)", "rr", "4"), -inf, 0.2)},
	{"fig9", at("max queue (KB)", "obs", "128"), "~90 % below 4 paths", "§6 Fig. 9", ratio(at("max queue (KB)", "obs", "4"), -inf, 0.2)},
	{"fig9", at("max queue (KB)", "mprdma", "128"), "~90 % below 4 paths", "§6 Fig. 9", ratio(at("max queue (KB)", "mprdma", "4"), -inf, 0.2)},
	{"fig9", at("avg queue (KB)", "obs", "128"), "~90 % below 4 paths", "§6 Fig. 9", ratio(at("avg queue (KB)", "obs", "4"), -inf, 0.1)},
	{"fig9", at("goodput (GB/s)", "rr", "128"), "128 paths raise goodput", "§6 Fig. 9", is(">", at("goodput (GB/s)", "rr", "4"))},
	{"fig9", at("goodput (GB/s)", "obs", "128"), "128 paths raise goodput", "§6 Fig. 9", is(">", at("goodput (GB/s)", "obs", "4"))},
	{"fig9", at("goodput (GB/s)", "mprdma", "128"), "128 paths raise goodput", "§6 Fig. 9", is(">", at("goodput (GB/s)", "mprdma", "4"))},
	{"fig9", at("goodput (GB/s)", "rr", "4"), "single path is worst", "§6 Fig. 9", is(">", at("goodput (GB/s)", "single-path", "4"))},
	{"fig9", at("goodput (GB/s)", "obs", "4"), "single path is worst", "§6 Fig. 9", is(">", at("goodput (GB/s)", "single-path", "4"))},

	{"fig10a", at("bus bw (GB/s)", "best-rtt", "128"), "BestRTT under-performs", "§6 Fig. 10a", is("<", at("bus bw (GB/s)", "rr", "128"))},
	{"fig10a", at("bus bw (GB/s)", "obs", "128"), "RR and OBS reach line rate", "§6 Fig. 10a", ratio(at("bus bw (GB/s)", "rr", "128"), 0.98, 1.02)},
	{"fig10a", at("bus bw (GB/s)", "dwrr", "128"), "DWRR under-performs RR (0.9× in the band test)", "§6 Fig. 10a",
		band(ratio(at("bus bw (GB/s)", "rr", "128"), 0.99, 1.01), 0.9)},

	{"fig10b", at("mean bus bw (GB/s)", "rr", "128"), "128 paths mitigate bursts", "§6 Fig. 10b", is(">", at("mean bus bw (GB/s)", "rr", "4"))},
	{"fig10b", at("mean bus bw (GB/s)", "obs", "128"), "128 paths mitigate bursts", "§6 Fig. 10b", is(">", at("mean bus bw (GB/s)", "obs", "4"))},
	{"fig10b", at("mean bus bw (GB/s)", "obs", "128"), "OBS clearly above RR (1.05× in the band test)", "§6 Fig. 10b",
		band(ratio(at("mean bus bw (GB/s)", "rr", "128"), 1, 1.005), 1.05)},

	{"fig11", at("relative", "rr", "128", "1%"), "almost no degradation", "§6 Fig. 11", atLeast(0.85)},
	{"fig11", at("relative", "rr", "128", "3%"), "almost no degradation", "§6 Fig. 11", atLeast(0.85)},
	{"fig11", at("relative", "obs", "128", "1%"), "almost no degradation", "§6 Fig. 11", atLeast(0.85)},
	{"fig11", at("relative", "obs", "128", "3%"), "almost no degradation", "§6 Fig. 11", atLeast(0.85)},

	{"fig12", at("imbalance (max-min/mean)"), "falls with path count", "§6 Fig. 12", steps(">")},
	{"fig12", at("imbalance (max-min/mean)", "128"), "balanced only at ≥ 128 paths", "§6 Fig. 12", ratio(at("imbalance (max-min/mean)", "4"), -inf, 0.2)},
	{"fig12", at("uplinks touched", "4"), "4 paths reach 4 of 60 aggs", "§6 Fig. 12", reads("4/60")},
	{"fig12", at("uplinks touched", "128"), "128 paths reach all 60 aggs", "§6 Fig. 12", reads("60/60")},
	{"fig12", at("paths").over("count"), "4 to 256 paths", "§6 Fig. 12", between(7, 7)},

	{"fig12-scale", at("imbalance (max-min/mean)"), "falls with path count", extScale, steps(">")},
	{"fig12-scale", at("uplinks touched", "128"), "128 paths reach all 60 aggs", extScale, reads("60/60")},
	{"fig12-scale", at("cores touched").part(1), "spraying must also cover the core", extScale, steps("<")},

	{"fig13", at("vstellar lat(us)", "8B"), "vStellar = bare metal", "§8 Fig. 13", is("==", at("bare lat(us)", "8B"))},
	{"fig13", at("vstellar Gbps", "8MB"), "vStellar = bare metal", "§8 Fig. 13", is("==", at("bare Gbps", "8MB"))},
	{"fig13", at("vf lat(us)", "8B"), "VF+VxLAN +7 % latency", "§8 Fig. 13", ratio(at("bare lat(us)", "8B"), 1.02, 1.2)},
	{"fig13", at("vf Gbps", "8MB"), "VF+VxLAN −9 % bandwidth", "§8 Fig. 13", ratio(at("bare Gbps", "8MB"), 0.85, 0.95)},

	{"fig14", at("Gbps", "vstellar"), "vStellar = bare metal", "§8 Fig. 14", is("==", at("Gbps", "bare-metal-stellar"))},
	{"fig14", at("Gbps", "vstellar"), "393 Gbps", "§8 Fig. 14", between(350, 430)},
	{"fig14", at("Gbps", "hyv-masq"), "141 Gbps", "§8 Fig. 14", between(100, 160)},
	{"fig14", at("Gbps", "hyv-masq"), "36 % of vStellar", "§8 Fig. 14", ratio(at("Gbps", "vstellar"), 0.25, 0.45)},
	{"fig14", at("route", "hyv-masq"), "through the Root Complex", "§8 Fig. 14", reads("p2p-via-rc")},
	{"fig14", at("route", "vstellar"), "switch-local P2P", "§8 Fig. 14", reads("p2p-direct")},

	{"fig15", at("steps/s", "secure (vStellar)"), "nearly identical", "§8 Fig. 15", is("==", at("steps/s", "regular (bare Stellar)"))},
	{"fig15", at("container").over("count"), "regular and secure", "§8 Fig. 15", between(2, 2)},

	{"fig16a", at("improvement").over("mean"), "avg +0.72 %", "§8 Fig. 16a", atMost(2)},
	{"fig16a", at("improvement").over("mean"), "avg +0.72 %", "§8 Fig. 16a", band(between(0, 0.2), 0.72)},
	{"fig16b", at("improvement").over("mean"), "random ranking gains more", "§8 Fig. 16", is(">", at("improvement").over("mean").in("fig16a"))},
	{"fig16b", at("improvement").over("mean"), "avg +6 %", "§8 Fig. 16b", atLeast(1)},
	{"fig16b", at("improvement").over("mean"), "avg +6 %", "§8 Fig. 16b", band(between(4, 5), 6)},
	{"fig16b", at("improvement").over("max"), "max +14 %", "§8 Fig. 16b", band(between(5.5, 6.5), 14)},

	{"table1", at("model").row(1), "Llama-33B first", "§2 Table 1", reads("Llama-33B")},
	{"table1", at("model").row(2), "GPT-200B second", "§2 Table 1", reads("GPT-200B")},
	{"table1", at("model").over("count"), "four jobs", "§2 Table 1", between(4, 4)},
	{"table1", at("TP% paper/model", "Megatron", "Llama-33B").part(1), "4.57 %", "§2 Table 1", reads("4.57")},
	{"table1", at("DP% paper/model", "Megatron", "Llama-33B").part(1), "20.95 %", "§2 Table 1", reads("20.95")},
	{"table1", at("PP% paper/model", "Megatron", "Llama-33B").part(1), "2.65 %", "§2 Table 1", reads("2.65")},
	{"table1", at("TP% paper/model", "Megatron", "GPT-200B").part(1), "10.88 %", "§2 Table 1", reads("10.88")},
	{"table1", at("DP% paper/model", "Megatron", "GPT-200B").part(1), "1.49 %", "§2 Table 1", reads("1.49")},
	{"table1", at("PP% paper/model", "Megatron", "GPT-200B").part(1), "20.14 %", "§2 Table 1", reads("20.14")},
	{"table1", at("DP% paper/model", "DeepSpeed-Zero1").part(1), "17.3 %", "§2 Table 1", reads("17.30")},
	{"table1", at("DP% paper/model", "DeepSpeed-Zero3").part(1), "10.5 %", "§2 Table 1", reads("10.50")},
	{"table1", at("TP% paper/model", "DeepSpeed-Zero1"), "no TP", "§2 Table 1", reads("n/a")},
	{"table1", at("TP% paper/model", "Megatron", "GPT-200B").part(2), "GPT-200B more TP-bound (10.88 vs 4.57)", "§2 Table 1",
		is(">", at("TP% paper/model", "Megatron", "Llama-33B").part(2))},
	{"table1", at("PP% paper/model", "Megatron", "GPT-200B").part(2), "GPT-200B more PP-bound (20.14 vs 2.65)", "§2 Table 1",
		is(">", at("PP% paper/model", "Megatron", "Llama-33B").part(2))},
	{"table1", at("DP% paper/model", "Megatron", "Llama-33B").part(2), "20.95 %", "§2 Table 1", band(between(10.5, 11.5), 20.95)},
	{"table1", at("DP% paper/model", "Megatron", "GPT-200B").part(2), "1.49 %", "§2 Table 1", band(between(5.1, 5.7), 1.49)},
	{"table1", at("DP% paper/model", "DeepSpeed-Zero1").part(2), "17.3 %", "§2 Table 1", band(between(76, 83), 17.3)},
	{"table1", at("DP% paper/model", "DeepSpeed-Zero3").part(2), "10.5 %", "§2 Table 1", band(between(91, 100), 10.5)},

	{"sec4", at("measured", "device create time"), "1.5 s", "§4", reads("1.5 s")},
	{"sec4", at("measured", "device ceiling"), "64 k devices", "§4", reads("65536")},
	{"sec4", at("measured", "1.6TB container init speedup"), "15–30×", "§4", atLeast(15)},
	{"sec4", at("measured", "SFs per RNIC after 100 create/destroy cycles"), "create and destroy without reset", "§4", reads("1 live")},

	{"ablation-emtt", at("route", "true"), "eMTT routes GDR switch-locally", extEMTT, reads("p2p-direct")},
	{"ablation-emtt", at("route", "false"), "without it GDR detours via the RC", extEMTT, reads("p2p-via-rc")},
	{"ablation-emtt", at("Gbps", "true"), "bypass is faster", extEMTT, is(">", at("Gbps", "false"))},
	{"ablation-emtt", at("rc-translations", "true"), "no RC translations", extEMTT, between(0, 0)},
	{"ablation-emtt", at("rc-translations", "false"), "RC translates", extEMTT, atLeast(1)},

	{"ablation-pvdma-block", at("registrations"), "bigger blocks register less", "§5: 2 MiB PVDMA blocks", steps(">=")},
	{"ablation-pvdma-block", at("pinned (MiB)"), "bigger blocks pin more", "§5: 2 MiB PVDMA blocks", steps("<=")},
	{"ablation-pvdma-block", at("map cost (ms)", "2MB"), "2 MiB costs least", "§5: 2 MiB PVDMA blocks", is("<=", at("map cost (ms)").over("min"))},

	{"ablation-perpath-cc", at("bus bw (GB/s)", "shared"), "one CC context over 128 paths", "§9", is(">", at("bus bw (GB/s)", "per-path"))},
	{"ablation-rto", at("completion (ms)", "4ms"), "250 µs RTO recovers fastest", "§7.2", is(">", at("completion (ms)", "250µs"))},

	{"lb-taxonomy", at("healthy goodput (GB/s)", "traffic-engineering"), "TE balances static traffic", "§7.1", ratio(at("healthy goodput (GB/s)", "obs-spray"), 0.9, inf)},
	{"lb-taxonomy", at("failed-link goodput (GB/s)", "traffic-engineering"), "TE craters on a failure", "§7.1", ratio(at("failed-link goodput (GB/s)", "obs-spray"), -inf, 0.5)},
	{"lb-taxonomy", at("healthy goodput (GB/s)", "adaptive-routing"), "AR comparable to spraying", "§7.1", ratio(at("healthy goodput (GB/s)", "obs-spray"), 0.9, 1.1)},
	{"lb-taxonomy", at("healthy goodput (GB/s)", "flowlet"), "flowlets do not help gapless RDMA", "§7.1", ratio(at("healthy goodput (GB/s)", "single-path-ecmp"), -inf, 1.1)},
	{"lb-taxonomy", at("failed-link goodput (GB/s)", "obs-spray"), "multi-path beats pinned ECMP on a failure", "§7.1", is(">", at("failed-link goodput (GB/s)", "single-path-ecmp"))},
	{"lb-taxonomy", at("endpoint path attribution", "traffic-engineering"), "endpoint knows the path", "§7.1", reads("yes (static)")},
	{"lb-taxonomy", at("endpoint path attribution", "flowlet"), "endpoint knows the path", "§7.1", reads("yes (per flowlet)")},
	{"lb-taxonomy", at("endpoint path attribution", "adaptive-routing"), "AR hides the path", "§7.1", reads("no (switch decides)")},
	{"lb-taxonomy", at("endpoint path attribution", "obs-spray"), "endpoint knows the path", "§7.1", reads("yes (per packet)")},
	{"lb-taxonomy", at("endpoint path attribution", "single-path-ecmp"), "endpoint knows the path", "§7.1", reads("yes (one path)")},
	{"lb-taxonomy", at("approach").over("count"), "four categories and the baseline", "§7.1", between(5, 5)},

	{"ablation-flowlet", at("max queue (KB)", "flowlet"), "flowlets queue far more than spraying", "§7.1", ratio(at("max queue (KB)", "obs"), 5, inf)},
	{"ablation-flowlet", at("max queue (KB)", "flowlet"), "but less than one path", "§7.1", is("<", at("max queue (KB)", "single-path"))},
	{"ablation-flowlet", at("goodput (GB/s)", "flowlet"), "flowlets lose goodput", "§7.1", is("<", at("goodput (GB/s)", "obs"))},
	{"ablation-pathaware", at("bus bw (GB/s)", "path-aware"), "no significant advantage", "§9", ratio(at("bus bw (GB/s)", "obs"), 0.9, 1.1)},

	{"problems", at("outcome", "1 VF inflexibility"), "reconfiguring VFs needs a reset", "§3.1 Problem ①", reads("rejected: full reset required (reproduced)")},
	{"problems", at("outcome", "1 VF memory cost"), "~2.4 GB per VF", "§3.1 Problem ①", reads("2400 MiB of host memory per VF (reproduced)")},
	{"problems", at("outcome", "2 VFIO full pin"), "~390 s", "§3.1 Problem ②", reads("432 s spent pinning (paper: ~390 s) (reproduced)")},
	{"problems", at("outcome", "3 LUT capacity"), "32 GDR VFs per server", "§3.1 Problem ③",
		reads("only 28 GDR-capable VFs before pcie: switch LUT full (paper: 32/server) (reproduced)")},
	{"problems", at("outcome", "4 ATS/IOMMU conflict"), "pt+ATS forces nopt", "§3.1 Problem ④",
		reads("pt+ATS rejected on the afflicted platform; production forced nopt (reproduced)")},
	{"problems", at("outcome", "5 steering interference"), "TCP rules bury RDMA steering", "§3.1 Problem ⑤", reads("RDMA lookup 18ns -> 3.618µs (reproduced)")},
	{"problems", at("outcome", "5 zero-MAC bug"), "zero-MAC frames discarded", "§3.1 Problem ⑤", reads("ToR discards zero-MAC VxLAN frames; VFs cannot talk (reproduced)")},
	{"problems", at("outcome", "6 single-path RDMA"), "ECMP hash imbalance", "§3.1 Problem ⑥", reads("ECMP core imbalance 2.00 vs 0.04 sprayed (reproduced)")},
	{"problems", at("problem").over("count"), "six incidents", "§3.1", atLeast(7)},
	{"prob6-core", at("core imbalance", "stellar obs/128"), "spraying evens the core", "§3.1 Problem ⑥", ratio(at("core imbalance", "single-path ecmp"), -inf, 0.2)},

	{"tcp-path", at("throughput (Gbps)", "virtio-sf", "pt"), "virtio/SF ~5 % slower", "§4", ratio(at("throughput (Gbps)", "vfio-vf", "pt"), 0.90, 0.98)},
	{"tcp-path", at("throughput (Gbps)", "vfio-vf", "nopt/small"), "IOTLB thrash under nopt", "§3.1 Problem ④", is("<", at("throughput (Gbps)", "vfio-vf", "nopt/large"))},
	{"tcp-path", at("throughput (Gbps)", "vfio-vf", "nopt/large"), "nopt costs host TCP", "§3.1 Problem ④", is("<", at("throughput (Gbps)", "vfio-vf", "pt"))},

	{"moe-alltoall", at("per-GPU egress bw (GB/s)", "obs"), "spraying holds its margin", extMoE, ratio(at("per-GPU egress bw (GB/s)", "single-path"), 2, inf)},
	{"moe-alltoall", at("per-GPU egress bw (GB/s)", "path-aware"), "path awareness not yet differentiating", extMoE, ratio(at("per-GPU egress bw (GB/s)", "obs"), 0.9, 1.1)},

	{"ablation-cc", at("bus bw (GB/s)", "0.80 *", "60µs"), "harsh back-off under-utilises", extCC, is(">", at("bus bw (GB/s)", "0.50", "60µs"))},
	{"ablation-cc", at("ecn acks", "0.95", "60µs"), "gentle back-off marks far more", extCC, ratio(at("ecn acks", "0.80 *", "60µs"), 2, inf)},
	{"ablation-cc", at("ecn acks").over("min"), "every cell sees congestion", extCC, atLeast(1)},

	{"linkfail-recovery", at("goodput (GB/s)", "*", "rto-recovery").over("mean"), "RTO keeps goodput while the link is dead", "§7.2",
		ratio(at("goodput (GB/s)", "*", "healthy").over("mean"), 0.9, inf)},
	{"linkfail-recovery", at("retransmits", "*", "rto-recovery").over("max"), "RTO retransmits", "§7.2", atLeast(1)},
	{"linkfail-recovery", at("retransmits").row(-1), "retransmits stop after the reroute", "§7.2", between(0, 0)},
	{"linkfail-recovery", at("goodput (GB/s)", "*", "rerouted").over("mean"), "BGP reroute restores goodput", "§7.2",
		ratio(at("goodput (GB/s)", "*", "healthy").over("mean"), 0.98, inf)},

	{"failure-sweep", at("relative", "*", "128").over("min"), "single faults stay within ~10 % at 128 paths", extFailure, atLeast(-10)},
	{"failure-sweep", at("relative", "single-path", "1", "link-down"), "single path collapses", extFailure, atMost(-50)},
	{"failure-sweep", at("stalls", "*", "128").over("max"), "no 128-path flow stalls", extFailure, between(0, 0)},

	{"chaos-recovery", at("flow", "*", "*", "flow-2", "16/16", "active", "-").over("count"), "the control flow is untouched", extRecovery, between(4, 4)},
	{"chaos-recovery", at("flow", "*", "on", "flow-1", "16/16", "active").over("count"), "reconnect completes every message", extRecovery, between(2, 2)},
	{"chaos-recovery", at("reconnects", "*", "on", "flow-1").over("min"), "recovery reconnects", extRecovery, atLeast(1)},
	{"chaos-recovery", at("flow", "*", "off", "flow-1", "*", "error").over("count"), "without it the flow parks in error", extRecovery, between(2, 2)},
	{"chaos-recovery", at("msgs", "*", "off", "flow-1").part(1).over("max"), "and never completes", extRecovery, atMost(15)},
	{"chaos-recovery", at("err", "qp-reset", "off", "flow-1"), "QP reset flushes WQEs", extRecovery, reads("wqe-flushed")},
	{"chaos-recovery", at("err", "rto-budget", "off", "flow-1"), "retry budget runs out", extRecovery, reads("retry-budget")},

	{"deploy", at("measured", "container init speed-up"), "15×", "§1", atLeast(15)},
	{"deploy", at("measured", "switch queue length reduction"), "~90 %", "§1", atLeast(80)},
	{"deploy", at("claim").over("count"), "three headline claims", "§1", between(3, 3)},

	{"contended-cluster", at("job").over("count"), "2 placements × 2 stacks × 4 jobs", extContended, between(16, 16)},
	{"contended-cluster", at("job", "*", "*", "*", "training").over("count"), "two training jobs per cell", extContended, between(8, 8)},
	{"contended-cluster", at("job", "*", "*", "*", "inference").over("count"), "one inference burst per cell", extContended, between(4, 4)},
	{"contended-cluster", at("job", "*", "*", "*", "storage").over("count"), "one storage stream per cell", extContended, between(4, 4)},
	{"contended-cluster", at("slowdown").over("min"), "contention never speeds a job up", extContended, atLeast(0.999)},
	{"contended-cluster", at("slowdown").over("max"), "some job sees contention", extContended, atLeast(1.0005)},
	{"contended-cluster", at("cell max uplink q (KB)", "random", "stellar obs/128").over("max"), "~90 % lower queues (§6)", extContended,
		ratio(at("cell max uplink q (KB)", "random", "cx7 single-path").over("max"), -inf, 0.1)},
}

// unclaimed lists the registered experiments with no claim row, each
// with the reason.
var unclaimed = map[string]string{
	"fig9-scale": "not in the seed-42 test batch (see runBatch)",
}

// rows returns the indices of the rows s selects in tb and the index of
// its column.
func (s sel) rows(tb *Table) ([]int, int, error) {
	col := slices.Index(tb.Header, s.col)
	if col < 0 {
		return nil, 0, fmt.Errorf("%s has no column %q", tb.ID, s.col)
	}
	var idx []int
	for i, r := range tb.Rows {
		if len(r) >= len(s.key) && slices.EqualFunc(s.key, r[:len(s.key)], func(k, c string) bool { return k == "*" || k == c }) {
			idx = append(idx, i)
		}
	}
	if s.nth != 0 {
		i := s.nth - 1
		if s.nth < 0 {
			i = len(idx) + s.nth
		}
		if i < 0 || i >= len(idx) {
			return nil, 0, fmt.Errorf("%s: no row %d among %d", s.label(), s.nth, len(idx))
		}
		idx = idx[i : i+1]
	}
	return idx, col, nil
}

// cells returns the texts s selects, exp naming the claim's experiment.
func (s sel) cells(tables map[string]*Table, exp string) ([]string, error) {
	if s.exp != "" {
		exp = s.exp
	}
	tb, ok := tables[exp]
	if !ok {
		return nil, fmt.Errorf("no table for %s", exp)
	}
	idx, col, err := s.rows(tb)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(idx))
	for i, r := range idx {
		out[i] = tb.Rows[r][col]
		if s.field > 0 {
			f := strings.Split(out[i], "/")
			if s.field > len(f) {
				return nil, fmt.Errorf("%s: %q has no field %d", s.label(), out[i], s.field)
			}
			out[i] = f[s.field-1]
		}
	}
	return out, nil
}

// number parses a numeric cell: a leading "+", a trailing "%" or "x",
// and any "/"-separated fields after the first are ignored.
func number(c string) (float64, error) {
	c, _, _ = strings.Cut(c, "/")
	c = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(c, "+"), "%"), "x")
	return strconv.ParseFloat(c, 64)
}

// values parses every cell s selects.
func (s sel) values(tables map[string]*Table, exp string) ([]float64, []string, error) {
	cs, err := s.cells(tables, exp)
	if err != nil {
		return nil, nil, err
	}
	vs := make([]float64, len(cs))
	for i, c := range cs {
		if vs[i], err = number(c); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.label(), err)
		}
	}
	return vs, cs, nil
}

// value is the one number s reads, and its text: a single cell, or the
// aggregate over the selected rows.
func (s sel) value(tables map[string]*Table, exp string) (float64, string, error) {
	if s.agg == "count" {
		cs, err := s.cells(tables, exp)
		return float64(len(cs)), strconv.Itoa(len(cs)), err
	}
	vs, cs, err := s.values(tables, exp)
	switch {
	case err != nil:
		return 0, "", err
	case len(vs) == 0 || s.agg == "" && len(vs) != 1:
		return 0, "", fmt.Errorf("%s selects %d rows", s.label(), len(vs))
	case s.agg == "":
		return vs[0], cs[0], nil
	}
	v := vs[0]
	for _, x := range vs[1:] {
		switch s.agg {
		case "mean":
			v += x
		case "min":
			v = min(v, x)
		case "max":
			v = max(v, x)
		}
	}
	if s.agg == "mean" {
		v /= float64(len(vs))
	}
	return v, strconv.FormatFloat(v, 'g', 4, 64), nil
}

func (s sel) label() string {
	var b strings.Builder
	if s.exp != "" {
		b.WriteString(s.exp + ": ")
	}
	if s.agg != "" {
		b.WriteString(s.agg + " of ")
	}
	b.WriteString(s.col)
	if s.field > 0 {
		fmt.Fprintf(&b, " field %d", s.field)
	}
	if len(s.key) > 0 {
		b.WriteString(" at " + strings.Join(s.key, ", "))
	}
	switch {
	case s.nth == -1:
		b.WriteString(", last row")
	case s.nth != 0:
		fmt.Fprintf(&b, ", row %d", s.nth)
	}
	return b.String()
}

func compare(a float64, op string, b float64) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case "==":
		return a == b
	case ">=":
		return a >= b
	case ">":
		return a > b
	}
	panic("unknown comparison " + op)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the check for the EXPERIMENTS.md table.
func (k check) String() string {
	switch k.kind {
	case ordered:
		return k.op + " " + k.other.label()
	case monotone:
		return "each row " + k.op + " the next"
	case exactText:
		return "exact text"
	}
	var b strings.Builder
	if k.other != nil {
		b.WriteString("÷ " + k.other.label() + " ")
	}
	switch {
	case k.lo == k.hi:
		b.WriteString("= " + num(k.lo))
	case k.hi == inf:
		b.WriteString("≥ " + num(k.lo))
	case k.lo == -inf:
		b.WriteString("≤ " + num(k.hi))
	default:
		fmt.Fprintf(&b, "in [%s, %s]", num(k.lo), num(k.hi))
	}
	if k.kind == deviation {
		fmt.Fprintf(&b, "; paper's %s outside", num(k.paper))
	}
	return b.String()
}

// eval checks c against tables and returns what it measured, with an
// error when the check fails or the cell cannot be read.
func (c claim) eval(tables map[string]*Table) (string, error) {
	k := c.check
	switch k.kind {
	case exactText:
		cs, err := c.cell.cells(tables, c.exp)
		if err != nil {
			return "", err
		}
		if len(cs) != 1 {
			return "", fmt.Errorf("%s selects %d rows", c.cell.label(), len(cs))
		}
		if cs[0] != k.want {
			return cs[0], fmt.Errorf("reads %q, want %q", cs[0], k.want)
		}
		return cs[0], nil
	case monotone:
		vs, cs, err := c.cell.values(tables, c.exp)
		if err != nil {
			return "", err
		}
		measured := strings.Join(cs, " → ")
		if len(vs) < 2 {
			return measured, fmt.Errorf("%s selects %d rows, want a column", c.cell.label(), len(vs))
		}
		for i := 1; i < len(vs); i++ {
			if !compare(vs[i-1], k.op, vs[i]) {
				return measured, fmt.Errorf("%s then %s, want each %s the next", cs[i-1], cs[i], k.op)
			}
		}
		return measured, nil
	}
	v, measured, err := c.cell.value(tables, c.exp)
	if err != nil {
		return "", err
	}
	if k.other != nil {
		o, otext, err := k.other.value(tables, c.exp)
		if err != nil {
			return "", err
		}
		if k.kind == ordered {
			measured += " vs " + otext
			if !compare(v, k.op, o) {
				return measured, fmt.Errorf("%s, want %s", measured, k)
			}
			return measured, nil
		}
		v /= o
		measured = fmt.Sprintf("%s ÷ %s = %s", measured, otext, strconv.FormatFloat(v, 'g', 4, 64))
	}
	if !(v >= k.lo && v <= k.hi) { // NaN, from a zero divisor, fails too
		return measured, fmt.Errorf("%s, want %s", measured, k)
	}
	return measured, nil
}

// checkClaims checks the rows of the named experiments, or every row
// when none is named, against the seed-42 batch.
func checkClaims(t *testing.T, exps ...string) {
	t.Helper()
	tables := batch(t).tables
	for _, c := range claims {
		if len(exps) > 0 && !slices.Contains(exps, c.exp) {
			continue
		}
		if _, err := c.eval(tables); err != nil {
			t.Errorf("%s %s (paper: %s, %s): %v", c.exp, c.cell.label(), c.paper, c.source, err)
		}
	}
}

func TestClaims(t *testing.T) { checkClaims(t) }

// The shape tests these rows replaced keep their names, each checking
// its experiments' rows.

func TestFig6Shape(t *testing.T)               { checkClaims(t, "fig6") }
func TestFig8Shape(t *testing.T)               { checkClaims(t, "fig8") }
func TestFig9Shape(t *testing.T)               { checkClaims(t, "fig9") }
func TestFig10bShape(t *testing.T)             { checkClaims(t, "fig10b") }
func TestFig11Shape(t *testing.T)              { checkClaims(t, "fig11") }
func TestFig12Shape(t *testing.T)              { checkClaims(t, "fig12") }
func TestFig13Shape(t *testing.T)              { checkClaims(t, "fig13") }
func TestFig14Shape(t *testing.T)              { checkClaims(t, "fig14") }
func TestFig15Shape(t *testing.T)              { checkClaims(t, "fig15") }
func TestFig16Shape(t *testing.T)              { checkClaims(t, "fig16a", "fig16b") }
func TestTable1Shape(t *testing.T)             { checkClaims(t, "table1") }
func TestSec4Shape(t *testing.T)               { checkClaims(t, "sec4") }
func TestAblationEMTTShape(t *testing.T)       { checkClaims(t, "ablation-emtt") }
func TestAblationPVDMABlockShape(t *testing.T) { checkClaims(t, "ablation-pvdma-block") }
func TestAblationPerPathCCShape(t *testing.T)  { checkClaims(t, "ablation-perpath-cc") }
func TestAblationRTOShape(t *testing.T)        { checkClaims(t, "ablation-rto") }
func TestAblationFlowletShape(t *testing.T)    { checkClaims(t, "ablation-flowlet") }
func TestAblationPathAwareShape(t *testing.T)  { checkClaims(t, "ablation-pathaware") }
func TestAblationCCShape(t *testing.T)         { checkClaims(t, "ablation-cc") }
func TestLBTaxonomyShape(t *testing.T)         { checkClaims(t, "lb-taxonomy") }
func TestProb6CoreShape(t *testing.T)          { checkClaims(t, "prob6-core") }
func TestProblemsAllReproduced(t *testing.T)   { checkClaims(t, "problems") }
func TestTCPPathShape(t *testing.T)            { checkClaims(t, "tcp-path") }
func TestMoEAllToAllShape(t *testing.T)        { checkClaims(t, "moe-alltoall") }
func TestDeployShape(t *testing.T)             { checkClaims(t, "deploy") }
func TestLinkFailRecoveryShape(t *testing.T)   { checkClaims(t, "linkfail-recovery") }
func TestChaosRecoveryOutcomes(t *testing.T)   { checkClaims(t, "chaos-recovery") }
func TestContendedCluster(t *testing.T) {
	checkClaims(t, "contended-cluster")
	checkIdentity(t, "contended-cluster")
}

// claimsDoc renders the claims table as EXPERIMENTS.md carries it.
func claimsDoc(tables map[string]*Table) string {
	esc := func(s string) string { return strings.ReplaceAll(s, "|", `\|`) }
	var b strings.Builder
	b.WriteString("| experiment | cell | paper | source | measured (seed 42) | check | status |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, c := range claims {
		measured, err := c.eval(tables)
		status := "reproduces"
		switch {
		case err != nil:
			status = "FAILS: " + err.Error()
		case c.check.kind == deviation:
			status = "expected deviation"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s |\n", c.exp, esc(c.cell.label()),
			esc(c.paper), esc(c.source), esc(measured), esc(c.check.String()), esc(status))
	}
	return b.String()
}

// TestClaimsDoc keeps EXPERIMENTS.md's claims block equal to what the
// batch renders, so the document cannot drift from the code.
func TestClaimsDoc(t *testing.T) {
	want := claimsDoc(batch(t).tables)
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- claims:begin -->\n", "<!-- claims:end -->"
	_, rest, ok1 := strings.Cut(string(raw), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok1 || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no %q ... %q block", strings.TrimSpace(begin), end)
	}
	if got != want {
		t.Errorf("EXPERIMENTS.md's claims block differs from the seed-42 batch; replace it with:\n%s", want)
	}
}

// withPaperValue returns tables with the paper's value written into
// every cell c's selector reads (for a ratio band, the paper's ratio
// times the other cell).
func withPaperValue(tables map[string]*Table, c claim) (map[string]*Table, error) {
	v := c.check.paper
	if c.check.other != nil {
		o, _, err := c.check.other.value(tables, c.exp)
		if err != nil {
			return nil, err
		}
		v *= o
	}
	exp := c.exp
	if c.cell.exp != "" {
		exp = c.cell.exp
	}
	tb := *tables[exp]
	tb.Rows = make([][]string, len(tables[exp].Rows))
	for i, r := range tables[exp].Rows {
		tb.Rows[i] = slices.Clone(r)
	}
	idx, col, err := c.cell.rows(&tb)
	if err != nil {
		return nil, err
	}
	for _, i := range idx {
		cell := num(v)
		if c.cell.field > 0 {
			f := strings.Split(tb.Rows[i][col], "/")
			f[c.cell.field-1] = cell
			cell = strings.Join(f, "/")
		}
		tb.Rows[i][col] = cell
	}
	out := maps.Clone(tables)
	out[exp] = &tb
	return out, nil
}

// TestDeviationBandsRejectPaperValue keeps every expected-deviation band
// tight: it holds on the batch, and fails once the paper's value is in
// the cell, so a change that closes the gap turns red until the row
// becomes a plain claim.
func TestDeviationBandsRejectPaperValue(t *testing.T) {
	tables := batch(t).tables
	covered := map[string]bool{}
	for _, c := range claims {
		if c.check.kind != deviation {
			continue
		}
		covered[c.exp] = true
		if _, err := c.eval(tables); err != nil {
			t.Errorf("%s %s: band fails on the batch: %v", c.exp, c.cell.label(), err)
		}
		paper, err := withPaperValue(tables, c)
		if err != nil {
			t.Fatalf("%s %s: %v", c.exp, c.cell.label(), err)
		}
		if measured, err := c.eval(paper); err == nil {
			t.Errorf("%s %s: band %s accepts the paper's value (%s)", c.exp, c.cell.label(), c.check, measured)
		}
	}
	for _, exp := range []string{"table1", "fig10a", "fig10b", "fig16b"} {
		if !covered[exp] {
			t.Errorf("%s has no expected-deviation row", exp)
		}
	}
}
