package touch

import (
	"fmt"
	"slices"

	"touch/internal/geom"
	"touch/internal/stats"
)

// Neighbor is one k-nearest-neighbor query result: an object ID from the
// indexed dataset and its minimum Euclidean distance from the query
// point (zero when the point lies inside the object's MBR). Index.KNN
// returns neighbors ordered by (Distance, ID) ascending.
type Neighbor = geom.Neighbor

// FormatBytes renders a byte count in human units (KB/MB/GB).
func FormatBytes(n int64) string { return stats.FormatBytes(n) }

// Result is the outcome of one join execution: the matched pairs (unless
// suppressed via Options.NoPairs or redirected to Options.Sink) and the
// execution statistics.
type Result struct {
	// Pairs holds one entry per matched pair, in (A, B) orientation —
	// Pair.A identifies the object from the first dataset passed to the
	// join even when the join-order heuristic swapped the datasets
	// internally.
	Pairs []Pair
	// Stats carries comparisons, filtered counts, analytic memory and
	// phase timings.
	Stats Stats
}

// Selectivity returns |results| / (|A|·|B|), the join selectivity metric
// of the paper's Table 1, given the input dataset sizes.
func (r *Result) Selectivity(lenA, lenB int) float64 {
	if lenA == 0 || lenB == 0 {
		return 0
	}
	return float64(r.Stats.Results) / (float64(lenA) * float64(lenB))
}

// SortPairs orders the result pairs by (A, B) for deterministic output
// and comparison across algorithms. It sorts one 64-bit key a pair,
// which orders as the pair does — A in the high half, B in the low, each
// with its sign bit flipped so that negative IDs come first — and writes
// the pairs back from the sorted keys.
func (r *Result) SortPairs() {
	const sign = 1 << 31
	keys := make([]uint64, len(r.Pairs))
	for i, p := range r.Pairs {
		keys[i] = uint64(uint32(p.A)^sign)<<32 | uint64(uint32(p.B)^sign)
	}
	slices.Sort(keys)
	for i, k := range keys {
		r.Pairs[i] = Pair{A: ID(uint32(k>>32) ^ sign), B: ID(uint32(k) ^ sign)}
	}
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("results=%d %s", r.Stats.Results, r.Stats.String())
}
