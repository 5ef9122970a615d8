package lit

import "leaveintime/internal/system"

// The high-level builder. It is implemented in internal/system so that
// the figure scenarios and the declarative runner are built on the same
// establishment path as library users; the root only names it.
type (
	// SystemConfig parametrizes a System.
	SystemConfig = system.Config
	// System bundles a simulator, a network of Leave-in-Time servers,
	// and per-server admission control into one object, so that
	// assembling the paper's scenarios (or your own) takes a few lines.
	// Lower-level control is always available through Sim and Net.
	System = system.System
	// Server is one Leave-in-Time server (a node's outgoing link)
	// together with its admission controller.
	Server = system.Server
	// ConnectRequest describes a connection to establish.
	ConnectRequest = system.ConnectRequest
	// Bounds carries the service commitments computed for an
	// established connection: the paper's eqs. 12-17, evaluated from
	// the session's declaration alone (the isolation property — no
	// other session enters these numbers). Calls of one declaration
	// over one route may share one Bounds: it is read-only.
	Bounds = system.Bounds
)

// NewSystem returns an empty system. The configuration is validated
// here rather than at first use: an invalid config (nonpositive LMax,
// unknown procedure) is reported as an error so callers can surface it
// instead of crashing mid-setup.
func NewSystem(cfg SystemConfig) (*System, error) { return system.New(cfg) }
