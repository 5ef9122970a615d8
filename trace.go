package lit

import "leaveintime/internal/trace"

// Packet-level tracing. Attach any Tracer to Network.Tracer (or
// System.Net.Tracer) before running; it sees every packet event as the
// simulation makes it:
//
//	type counter map[lit.TraceKind]int
//	func (c counter) Trace(e lit.TraceEvent) { c[e.Kind]++ }
//
//	seen := counter{}
//	sys.Net.Tracer = seen
//	sys.Run(60)
type (
	// Tracer consumes packet events inline with the simulation.
	Tracer = trace.Tracer
	// TraceEvent is one packet event (arrival, transmission start/end,
	// delivery, buffer-limit drop).
	TraceEvent = trace.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
)
