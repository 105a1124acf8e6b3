package fork

import (
	"errors"
	"math"

	"multihonest/internal/charstring"
)

// Reach bundles the per-tine adversarial-resource quantities of
// Definition 13 for a closed fork: gap, reserve and reach = reserve − gap.
type Reach struct {
	Gap     int // height(F) − length(t)
	Reserve int // adversarial indices of w after ℓ(t)
	Reach   int // Reserve − Gap
}

// ErrNotClosed is returned by reach computations on non-closed forks, where
// gap/reserve/reach are not defined (Definition 13 requires a closed fork).
var ErrNotClosed = errors.New("fork: reach quantities require a closed fork")

// Reaches computes the Reach quantities for every vertex of a closed fork,
// indexed by vertex ID. It returns ErrNotClosed when the fork has an
// adversarial leaf.
func (f *Fork) Reaches() ([]Reach, error) {
	if !f.IsClosed() {
		return nil, ErrNotClosed
	}
	// suffixA[i] = number of adversarial indices j > i in w.
	suffixA := make([]int, len(f.w)+2)
	for i := len(f.w); i >= 1; i-- {
		suffixA[i] = suffixA[i+1]
		if f.w[i-1] == charstring.Adversarial {
			suffixA[i]++
		}
	}
	h := f.Height()
	out := make([]Reach, len(f.vertices))
	for _, v := range f.vertices {
		r := Reach{Gap: h - v.depth, Reserve: suffixA[v.label+1]}
		if v.label == 0 {
			r.Reserve = suffixA[1]
		}
		r.Reach = r.Reserve - r.Gap
		out[v.id] = r
	}
	return out, nil
}

// MaxReach returns ρ(F) = max_t reach(t) over the closed fork F
// (Definition 14). ρ(F) ≥ 0 always: a longest tine has gap 0.
func (f *Fork) MaxReach() (int, error) {
	rs, err := f.Reaches()
	if err != nil {
		return 0, err
	}
	best := math.MinInt
	for _, r := range rs {
		best = max(best, r.Reach)
	}
	return best, nil
}

// RelativeMargin returns µ_x(F) for |x| = xlen: the maximum over pairs of
// tines that are edge-disjoint over the suffix y (w = xy) of the smaller of
// the two reaches. A single tine labeled within x pairs with itself.
func (f *Fork) RelativeMargin(xlen int) (int, error) {
	all, err := f.RelativeMarginsAllPrefixes()
	if err != nil {
		return 0, err
	}
	if xlen < 0 {
		xlen = 0
	}
	if xlen >= len(all) {
		xlen = len(all) - 1
	}
	return all[xlen], nil
}

// RelativeMarginsAllPrefixes returns µ_x(F) for every prefix length
// |x| = 0..|w| in a single pass. Index m of the result is µ_x(F) for
// |x| = m.
//
// The computation exploits that a tine pair (t1, t2) witnesses µ_x(F) for
// every |x| ≥ ℓ(t1 ∩ t2): we bucket the pairwise min-reach by LCA label and
// take running prefix maxima. Cost is O(V² · depth) for the pairwise LCAs.
func (f *Fork) RelativeMarginsAllPrefixes() ([]int, error) {
	rs, err := f.Reaches()
	if err != nil {
		return nil, err
	}
	n := len(f.w)
	bestAtLabel := make([]int, n+1)
	for i := range bestAtLabel {
		bestAtLabel[i] = math.MinInt
	}
	// Self-pairs: tine t is disjoint with itself over y when ℓ(t) ≤ |x|.
	for _, v := range f.vertices {
		bestAtLabel[v.label] = max(bestAtLabel[v.label], rs[v.id].Reach)
	}
	// Distinct pairs.
	for i, u := range f.vertices {
		for _, v := range f.vertices[i+1:] {
			l := LCA(u, v).label
			m := min(rs[u.id].Reach, rs[v.id].Reach)
			bestAtLabel[l] = max(bestAtLabel[l], m)
		}
	}
	out := make([]int, n+1)
	cur := math.MinInt
	for l := 0; l <= n; l++ {
		cur = max(cur, bestAtLabel[l])
		out[l] = cur
	}
	return out, nil
}
