package model

// SetStampLimit makes limit the last selection stamp before a rebase and
// returns the function that restores the real limit. A test that calls
// it must not run in parallel: every simulator reads the limit.
func SetStampLimit(limit uint32) (restore func()) {
	old := stampLimit
	stampLimit = limit
	return func() { stampLimit = old }
}

// Live reports whether p is in the simulator's live set: under a
// MaskScheduler, whether its next selection is evaluated rather than
// counted. It is false under every other scheduler.
func (s *Simulator) Live(p int) bool { return s.msched != nil && s.live[p>>6]&(1<<(p&63)) != 0 }

// OpenWindows counts the processes whose window holds selections not
// yet settled (see Simulator.counts). It is 0 whenever an exported method
// has returned.
func (s *Simulator) OpenWindows() int {
	open := 0
	for p, c := range s.counts {
		if s.allSel && !s.Live(p) && uint32(c) != s.selStamp || !s.allSel && c != 0 {
			open++
		}
	}
	return open
}
