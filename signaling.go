package lit

import "leaveintime/internal/signaling"

// Connection signaling: SETUP/ACCEPT/REJECT/RELEASE exchanges played
// out in simulated time over a path of admission-guarded nodes, as the
// paper's connection-oriented substrate requires; a node's Admit field
// takes any Controller (NewProcedure1/2) directly. Use it when
// establishment latency and the race behavior of concurrent setups
// matter; System.Connect is the zero-latency equivalent.
type (
	// Signaler establishes and tears down connections over a path.
	Signaler = signaling.Signaler
	// SignalNode is one admission-guarded hop on a signaling path.
	SignalNode = signaling.Node
	// SignalRequest describes the connection to establish.
	SignalRequest = signaling.Request
	// SignalResult is the outcome delivered to the source.
	SignalResult = signaling.Result
)

// NewSignaler returns a signaler over the given path driven by sim.
func NewSignaler(sim *Simulator, path []*SignalNode) *Signaler {
	return signaling.New(sim, path)
}
