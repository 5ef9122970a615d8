package network

// InjectAt places a single packet of the given length at the session's
// first node at time t (must be the current simulation time), so that a
// test can drive a hand-built arrival pattern.
func (s *Session) InjectAt(t, length float64) {
	s.emitState()
	s.send(t, length)
}

// Ports returns all ports in creation order.
func (n *Network) Ports() []*Port { return n.ports }

// sessionByID returns the session with the given ID, or nil when it is
// not (or no longer) established.
func (n *Network) sessionByID(id int) *Session {
	if e := n.sessByID.Get(id); e != nil {
		return *e
	}
	return nil
}
