package dp

import "math"

// Broadcast charges the cost of replicating words from one VU to every VU
// of a group of size group (one-to-all over a fat-tree: log2(group) latency
// terms plus the words through the root link). group 0 means all VUs. The
// caller replicates the actual data itself (translation matrices are
// deterministic, so the simulator does not need to ship them); this
// primitive exists to account for the replication strategies of Section
// 3.3.4 / Figures 8-9.
func (m *Machine) Broadcast(words int64, group int) {
	if group <= 0 {
		group = m.NumVUs()
	}
	c := &m.counters
	atomicAdd64(&c.BcastCalls, 1)
	atomicAdd64(&c.BcastWords, words*int64(group-1))
	hops := math.Log2(float64(group))
	if hops < 1 {
		hops = 1
	}
	c.addCommCycles(m.Cost.BcastLatencyCycles + m.Cost.BcastHopCycles*hops +
		float64(words)*m.Cost.BcastCyclesPerWord*(1+m.Cost.BcastWordHopFactor*hops))
}
