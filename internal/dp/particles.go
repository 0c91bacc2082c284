package dp

import "sort"

// Array1D is a 1-D array block-distributed over the VUs: elements
// [vu*chunk, (vu+1)*chunk) live on VU vu (the layout of the input particle
// attribute arrays in the paper, Section 3.1).
type Array1D struct {
	m     *Machine
	Data  []float64
	chunk int
}

// NewArray1D wraps data (taking ownership) as a block-distributed array.
func (m *Machine) NewArray1D(data []float64) *Array1D {
	n := len(data)
	chunk := (n + m.NumVUs() - 1) / m.NumVUs()
	if chunk == 0 {
		chunk = 1
	}
	return &Array1D{m: m, Data: data, chunk: chunk}
}

// VUOf returns the VU owning element i.
func (a *Array1D) VUOf(i int) int { return i / a.chunk }

// Len returns the number of elements.
func (a *Array1D) Len() int { return len(a.Data) }

// SortByKeys sorts a set of parallel attribute arrays by uint64 keys — the
// paper's coordinate sort. The returned permutation perm satisfies
// out[i] = in[perm[i]]. The cost model charges a parallel radix/sample sort:
// O(n/P) work per VU plus routing of every element that changes VU.
func SortByKeys(m *Machine, keys []uint64, attrs ...*Array1D) []int {
	n := len(keys)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return keys[perm[i]] < keys[perm[j]] })

	var moved int64
	if n > 0 {
		chunk := (n + m.NumVUs() - 1) / m.NumVUs()
		if len(attrs) > 0 {
			chunk = attrs[0].chunk
		}
		for i, p := range perm {
			if i/chunk != p/chunk {
				moved++
			}
		}
	}
	for _, a := range attrs {
		tmp := make([]float64, n)
		for i, p := range perm {
			tmp[i] = a.Data[p]
		}
		copy(a.Data, tmp)
	}
	c := &m.counters
	atomicAdd64(&c.SendCalls, 1)
	atomicAdd64(&c.SendWords, moved*int64(len(attrs)))
	atomicAdd64(&c.SendLocal, (int64(n)-moved)*int64(len(attrs)))
	nvu := float64(m.NumVUs())
	// Sort cost: comparison/bucketing passes over the local share plus
	// routing of the moved elements.
	passes := 4.0
	c.addCommCycles(m.Cost.SendLatencyCycles + float64(moved)*float64(len(attrs))*m.Cost.SendCyclesPerWord/nvu)
	c.addCopyCycles(passes * float64(n) / nvu * m.Cost.CopyCyclesPerWord * float64(len(attrs)+1))
	return perm
}
