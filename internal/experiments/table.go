// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§8) on the simulation stack. Each experiment is a
// function returning a Table; cmd/stellarbench prints them and
// bench_test.go wraps them in testing.B benchmarks. DESIGN.md carries
// the experiment index; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one experiment's printable result.
type Table struct {
	// ID is the experiment identifier ("fig6", "table1", ...).
	ID string
	// Title describes what the paper figure/table shows.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the data, already formatted.
	Rows [][]string
	// Notes carry paper-expectation commentary printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the table as a single JSON object (machine-readable
// export for CI and notebooks). Field order and indentation are fixed,
// so equal tables serialize byte-identically.
func (t *Table) JSON() string {
	obj := struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes}
	b, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		panic(err) // strings-only struct cannot fail to marshal
	}
	return string(b) + "\n"
}

// ParseTable decodes a Table previously serialized with JSON, the form
// the claims table reads a batch's output in. It is strict: undecodable
// bytes, a missing ID or a row whose width differs from the header's
// are errors, never a partial table (String needs every row as wide as
// the header). Round-trip
// fidelity is exact because JSON fixes field order and indentation.
func ParseTable(b []byte) (*Table, error) {
	var obj struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return nil, fmt.Errorf("experiments: parsing table: %w", err)
	}
	if obj.ID == "" {
		return nil, fmt.Errorf("experiments: parsed table has no ID")
	}
	for i, row := range obj.Rows {
		if len(row) != len(obj.Header) {
			return nil, fmt.Errorf("experiments: table %s: row %d has %d cells, header has %d", obj.ID, i, len(row), len(obj.Header))
		}
	}
	return &Table{ID: obj.ID, Title: obj.Title, Header: obj.Header, Rows: obj.Rows, Notes: obj.Notes}, nil
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Desc string
	// Fn is the experiment body: a pure function of its Session.
	// Concurrent runs each pass their own Session, so no state is
	// shared between them.
	Fn func(s *Session) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig6", "GPU pod start-up time vs memory size", Fig6},
		{"fig6-fleet", "Serverless churn: cold-start distributions at fleet scale", ChurnFleet},
		{"fig8", "GDR bandwidth vs message size (ATC miss test)", Fig8},
		{"fig9", "Queue depth under permutation traffic", Fig9},
		{"fig10a", "AllReduce under static background traffic", Fig10a},
		{"fig10b", "AllReduce under bursty background traffic", Fig10b},
		{"fig11", "AllReduce under link failures (random loss)", Fig11},
		{"fig12", "Switch port imbalance vs path count", Fig12},
		{"fig9-scale", "Cross-pod permutation at 4096 hosts (sharded)", Fig9Scale},
		{"fig12-scale", "Cross-pod port imbalance at 4096 hosts (sharded)", Fig12Scale},
		{"fig13", "RDMA write latency/throughput microbenchmark", Fig13},
		{"fig14", "GDR write throughput across stacks", Fig14},
		{"fig15", "E2E training with and without virtualization", Fig15},
		{"fig16a", "Stellar vs CX7 SOTA, reranked placement", Fig16a},
		{"fig16b", "Stellar vs CX7 SOTA, random placement", Fig16b},
		{"table1", "Parallel strategy and communication ratios", Table1Exp},
		{"sec4", "vStellar device agility claims", Sec4},
		{"ablation-emtt", "eMTT on/off ablation", AblationEMTT},
		{"ablation-pvdma-block", "PVDMA block size ablation", AblationPVDMABlock},
		{"ablation-perpath-cc", "Shared vs per-path CC ablation", AblationPerPathCC},
		{"ablation-rto", "RTO sensitivity under loss", AblationRTO},
		{"lb-taxonomy", "§7.1 load-balancing design space", LBTaxonomy},
		{"ablation-flowlet", "Flowlet switching on RDMA bulk traffic", AblationFlowlet},
		{"ablation-pathaware", "Path-aware spraying vs OBS", AblationPathAware},
		{"problems", "All six §3.1 incidents replayed", Problems},
		{"prob6-core", "Cross-pod core-layer hash imbalance", Prob6Core},
		{"tcp-path", "Non-RDMA TCP datapath costs", TCPPath},
		{"moe-alltoall", "MoE expert-parallel all-to-all", MoEAllToAll},
		{"ablation-cc", "CC sensitivity around the production point", AblationCC},
		{"linkfail-recovery", "Full link failure: RTO then BGP reroute", LinkFailRecovery},
		{"failure-sweep", "Fault classes x selectors with recovery metrics", FailureSweep},
		{"chaos-recovery", "QP reset and retry-budget recovery drill", ChaosRecovery},
		{"contended-cluster", "Multi-job replay: per-job slowdown vs isolated", ContendedCluster},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
