package fleet

// Placement picks the destination device for a migration among the
// owning user's other devices. All policies are pure functions of
// engine state with lowest-index tie-breaking, so placement is as
// deterministic as everything else in the run loop.

// place dispatches on the spec's placement policy. The candidate set
// is the migration user's devices minus the current holder — Flux
// moves apps between a single user's surfaces, never across users.
func (s *Sim) place(m *mig) int32 {
	first := s.userDev0[m.user]
	n := int32(s.spec.DevicesPerUser)
	if s.spec.Placement == PlacementBandwidthAware {
		// Fastest pipe first: maximize the measured link bandwidth of
		// (source model, candidate model); ties go to the lowest index.
		best := nilIdx
		var bestBW int64 = -1
		for d := first; d < first+n; d++ {
			if d == m.src {
				continue
			}
			if bw := s.bwPair[s.devRole[m.src]][s.devRole[d]]; bw > bestBW {
				bestBW = bw
				best = d
			}
		}
		return best
	}
	// Least-loaded: fewest active migrations touching the candidate;
	// ties go to the lowest index.
	best := nilIdx
	var bestLoad int32 = 1<<31 - 1
	for d := first; d < first+n; d++ {
		if d == m.src {
			continue
		}
		if s.load[d] < bestLoad {
			bestLoad = s.load[d]
			best = d
		}
	}
	return best
}
