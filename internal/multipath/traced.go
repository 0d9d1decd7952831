package multipath

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// WithTrace wraps a selector so every path decision and congestion
// feedback lands in the flight recorder under the "multipath"
// component of the given host's process. The wrapper is pass-through:
// it consumes no randomness and changes no decisions, so a traced run
// is numerically identical to an untraced one. A nil tracer returns
// the selector unwrapped.
func WithTrace(inner Selector, tr *trace.Tracer, host string) Selector {
	if tr == nil {
		return inner
	}
	return &tracedSelector{inner: inner, tr: tr, host: host}
}

type tracedSelector struct {
	inner Selector
	tr    *trace.Tracer
	host  string
}

func (s *tracedSelector) Name() string  { return s.inner.Name() }
func (s *tracedSelector) NumPaths() int { return s.inner.NumPaths() }

// NextPath records the decision as a zero-length slice named after the
// algorithm, so Perfetto's multipath lane reads as a decision log.
func (s *tracedSelector) NextPath() int {
	p := s.inner.NextPath()
	s.tr.Complete(s.host, "multipath", "path", s.inner.Name(), 0, trace.I("path", int64(p)))
	return p
}

// Feedback records only congestion-relevant observations (ECN echo or
// loss) to keep clean-ack volume out of the ring.
func (s *tracedSelector) Feedback(path int, rtt sim.Duration, ecn, lost bool) {
	if ecn || lost {
		s.tr.Instant(s.host, "multipath", "path", "feedback",
			trace.I("path", int64(path)), trace.D("rtt", rtt),
			trace.B("ecn", ecn), trace.B("lost", lost))
	}
	s.inner.Feedback(path, rtt, ecn, lost)
}

// SetClock forwards the virtual clock to the wrapped selector when it
// needs one, keeping the wrapper transparent to the transport's
// ClockedSelector wiring.
func (s *tracedSelector) SetClock(now func() sim.Time) {
	if cs, ok := s.inner.(ClockedSelector); ok {
		cs.SetClock(now)
	}
}
