package experiments

import (
	"fmt"

	"leopard/internal/obs"
)

// Tracing, when set, makes the trace-aware scenario (chaos) record a
// per-replica structured event trace for every run it builds.
// cmd/leopard-sim sets it for -trace, the tests for the trace determinism
// gate; it is package state read at cluster build time. Traces are stamped
// from the simulated clock, so two identically-seeded traced runs export
// byte-identical traces — and a traced run behaves identically to an
// untraced one (the tracer only observes;
// TestChaosDigestUnchangedByTracing).
var Tracing *obs.Collector

// traceRun opens one run's TraceSet under the process collector. It
// returns nil when tracing is off; every consumer (harness.Options.Trace,
// leopard.Config.Tracer via TraceSet.Tracer, InvariantChecker.AttachTrace)
// is nil-safe, so call sites wire it unconditionally.
func traceRun(label string, n int) *obs.TraceSet {
	if Tracing == nil {
		return nil
	}
	return Tracing.NewRun(fmt.Sprintf("%s n=%d", label, n), n)
}
