// Package stats holds the implementation-independent metrics reported by
// the TOUCH paper's evaluation — the number of object–object comparisons,
// the number of filtered objects, result counts — plus an analytic memory
// accounting of each algorithm's data structures and phase timings.
//
// A comparison is one intersection test between the bounding boxes of two
// *objects* (one from each dataset). Tests against index-node MBRs are
// tracked separately as NodeTests: they cost time but are not comparisons
// in the paper's sense.
package stats

import (
	"fmt"
	"sync"
	"time"

	"touch/internal/geom"
)

// Counters accumulates the metrics of one join execution. Algorithms
// mutate a Counters value directly; it is not safe for concurrent use
// (the paper's joins are single-threaded; the parallel driver merges
// per-worker Counters with Add).
type Counters struct {
	// Comparisons counts object–object MBR intersection tests, the
	// paper's implementation-independent cost metric.
	Comparisons int64
	// NodeTests counts MBR tests against index nodes (R-tree nodes,
	// TOUCH tree nodes, grid-cell bounds). Not part of Comparisons.
	NodeTests int64
	// Filtered counts objects of the probe dataset eliminated without
	// any object-level comparison (TOUCH and S3 filtering).
	Filtered int64
	// Results counts emitted result pairs.
	Results int64
	// Replicas counts extra object references created by multiple
	// assignment (PBSM) or grid replication (local joins).
	Replicas int64
	// MemoryBytes is the analytic footprint of the algorithm's support
	// structures (indexes, partitions, sorted copies); it excludes the
	// input datasets themselves, which every algorithm shares.
	MemoryBytes int64

	// Phase timings.
	BuildTime  time.Duration // index/partition construction on dataset A
	AssignTime time.Duration // distribution of dataset B (TOUCH, PBSM, S3)
	JoinTime   time.Duration // the actual join
}

// Total returns the sum of the phase timings.
func (c *Counters) Total() time.Duration {
	return c.BuildTime + c.AssignTime + c.JoinTime
}

// Add merges other into c (used by the parallel driver).
func (c *Counters) Add(other Counters) {
	c.Comparisons += other.Comparisons
	c.NodeTests += other.NodeTests
	c.Filtered += other.Filtered
	c.Results += other.Results
	c.Replicas += other.Replicas
	c.MemoryBytes += other.MemoryBytes
	c.BuildTime += other.BuildTime
	c.AssignTime += other.AssignTime
	c.JoinTime += other.JoinTime
}

// String implements fmt.Stringer with a compact one-line summary.
func (c *Counters) String() string {
	return fmt.Sprintf("cmp=%d results=%d filtered=%d mem=%s time=%v",
		c.Comparisons, c.Results, c.Filtered, FormatBytes(c.MemoryBytes), c.Total())
}

// Sink receives result pairs as the join produces them. Using a sink
// instead of materializing []Pair lets large experiments run with a
// constant-size result footprint, mirroring the paper's methodology of
// measuring counts.
type Sink interface {
	// Emit reports that object a of dataset A and object b of dataset B
	// were found to overlap.
	Emit(a, b geom.ID)
}

// CountSink counts results without storing them.
type CountSink struct{ N int64 }

// Emit implements Sink.
func (s *CountSink) Emit(a, b geom.ID) { s.N++ }

// CollectSink materializes the result pairs.
type CollectSink struct{ Pairs []geom.Pair }

// Emit implements Sink.
func (s *CollectSink) Emit(a, b geom.ID) {
	s.Pairs = append(s.Pairs, geom.Pair{A: a, B: b})
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(a, b geom.ID)

// Emit implements Sink.
func (f FuncSink) Emit(a, b geom.ID) { f(a, b) }

// LockedSink serializes access to an underlying sink so that multiple
// join workers can share it. Workers should not call Emit directly on
// the LockedSink in hot loops — NewBatch returns a buffering front end
// that takes the mutex once per batch instead of once per pair.
type LockedSink struct {
	mu   sync.Mutex
	sink Sink
}

// NewLockedSink wraps sink for concurrent use.
func NewLockedSink(sink Sink) *LockedSink { return &LockedSink{sink: sink} }

// Emit implements Sink under the mutex.
func (l *LockedSink) Emit(a, b geom.ID) {
	l.mu.Lock()
	l.sink.Emit(a, b)
	l.mu.Unlock()
}

// NewBatch returns a new per-worker batching sink flushing into l every
// size pairs. Each worker must own its batch exclusively and call Flush
// when done.
func (l *LockedSink) NewBatch(size int) *BatchSink {
	if size < 1 {
		size = 1
	}
	return &BatchSink{parent: l, buf: make([]geom.Pair, 0, size)}
}

// BatchSink buffers emitted pairs and forwards them to its parent
// LockedSink in batches, cutting mutex contention on emit-heavy joins.
// Not safe for concurrent use — one BatchSink per worker.
type BatchSink struct {
	parent *LockedSink
	buf    []geom.Pair
}

// Emit implements Sink, flushing when the buffer is full.
func (b *BatchSink) Emit(x, y geom.ID) {
	b.buf = append(b.buf, geom.Pair{A: x, B: y})
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// Flush forwards all buffered pairs under a single lock acquisition.
func (b *BatchSink) Flush() {
	if len(b.buf) == 0 {
		return
	}
	b.parent.mu.Lock()
	for _, p := range b.buf {
		b.parent.sink.Emit(p.A, p.B)
	}
	b.parent.mu.Unlock()
	b.buf = b.buf[:0]
}

// Analytic structure sizes, in bytes, shared by the memory accounting of
// all algorithms. They reflect the natural in-memory layout on a 64-bit
// machine; what matters for reproducing the paper's Figure 9–11(c) and
// 16(c) is that every algorithm is accounted with the same yardstick.
const (
	// BytesPerObject is the size of one geom.Object (int32 ID padded to
	// 8 bytes + 6 float64 box coordinates).
	BytesPerObject = 8 + 6*8
	// BytesPerRef is the size of one object reference (index or pointer)
	// inside a partition, grid cell or tree node.
	BytesPerRef = 8
	// BytesPerBox is the size of one MBR.
	BytesPerBox = 6 * 8
	// BytesPerNode is the fixed overhead of one node of a pointer tree
	// (MBR + slice headers for children and entries + level/parent
	// bookkeeping): the R-tree baseline's. TOUCH's tree is a table and
	// counts its own entries (core.Tree.StaticBytes).
	BytesPerNode = BytesPerBox + 3*24 + 8
	// BytesPerCell is the fixed overhead of one occupied grid cell
	// (hash-map bucket entry + two slice headers).
	BytesPerCell = 8 + 2*24
)

// FormatBytes renders a byte count in human units.
func FormatBytes(n int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case n >= gb:
		return fmt.Sprintf("%.2fGB", float64(n)/gb)
	case n >= mb:
		return fmt.Sprintf("%.2fMB", float64(n)/mb)
	case n >= kb:
		return fmt.Sprintf("%.2fKB", float64(n)/kb)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
