package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one Chrome trace-format complete event. Timestamps are wall
// clock microseconds, so spans recorded by separate child processes
// share one timeline.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newSpan(name, cat string, start, end time.Time, args map[string]any) span {
	return span{Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.UnixNano()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3, Pid: 1, Args: args}
}

// writeSpans writes the spans, kept in memory until now, as
// dir/spans.json for chrome://tracing or Perfetto.
func writeSpans(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": spans, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}
