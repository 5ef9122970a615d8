package lit

import "leaveintime/internal/trace"

// Packet-level tracing. Attach a tracer to Network.Tracer (or
// System.Net.Tracer) before running:
//
//	rec := &lit.TraceRecorder{}
//	sys.Net.Tracer = rec
//	sys.Run(60)
//	for _, hop := range rec.PerHopDelays(sessID) { ... }
type (
	// Tracer consumes packet events inline with the simulation.
	Tracer = trace.Tracer
	// TraceEvent is one packet event (arrival, transmission start/end,
	// delivery, buffer-limit drop).
	TraceEvent = trace.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
	// PerHopDelay summarizes one hop's delay contribution.
	PerHopDelay = trace.PerHopDelay
)
