package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"touch/internal/geom"
	"touch/internal/stats"
)

const (
	// minParallelAssign is the probe dataset size below which sharding
	// the assignment phase costs more than it saves.
	minParallelAssign = 2048
	// sinkBatchSize is how many result pairs a join worker buffers
	// before taking the shared sink's mutex.
	sinkBatchSize = 1024
)

// assignParallel shards B across the probe's workers. Workers only read
// the shared tree and record each object's destination node id in its
// per-index dest slot, so no synchronization is needed beyond the final
// counting-sort merge (Probe.merge), which runs in input order and makes
// every node's B segment bit-identical to the sequential assignment.
func (p *Probe) assignParallel(b geom.Dataset, dest []int32, ctl *stats.Control, c *stats.Counters) {
	t := p.tree
	workers := p.workers
	if max := (len(b) + minParallelAssign - 1) / minParallelAssign; workers > max {
		workers = max
	}
	counters := p.counterSlice(workers)
	chunk := (len(b) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(b))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := &counters[w]
			tk := stats.NewTicker(ctl)
			for i := lo; i < hi; i++ {
				if tk.Tick() {
					break
				}
				dest[i] = t.AssignOne(&b[i].Box, local)
				if dest[i] < 0 {
					local.Filtered++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range counters {
		c.Add(counters[w])
	}
}

// joinParallel runs the join phase across the probe's workers in two
// stages. Nodes whose estimated cost is a large share of the total —
// the root-most nodes can hold orders of magnitude more work than a
// leaf, and a node is otherwise indivisible — are processed one at a
// time with all workers cooperating: the probe tasks and the CSR grid
// are built once and the tasks' A objects are probed in parallel shares
// — the same task list the sequential join walks, so the counters do not
// depend on the worker count. The remaining nodes are dispatched whole
// to a worker pool, most expensive first. Each
// worker owns a stats.Counters and a joinScratch (grid buffers are
// reused across nodes and across joins) and batches emitted pairs,
// taking the shared sink's mutex once per batch instead of once per
// pair. The tree is only read; everything written lives in the probe,
// the counters and the sink.
func (p *Probe) joinParallel(ctl *stats.Control, c *stats.Counters, sink stats.Sink) {
	t := p.tree
	// Not clamped to the active-node count: the stage-1 chunked probe
	// wants every worker even when a single giant node is all there is;
	// stage-2 pool workers beyond the node count exit immediately.
	workers := p.workers
	gridKind := t.cfg.LocalJoin == LocalJoinGrid || t.cfg.LocalJoin == LocalJoinGridPostDedup

	total := int64(0)
	for _, id := range p.active {
		total += p.joinCost(id)
	}
	// A node is "big" when dispatching it whole would leave one worker
	// with a disproportionate share of the phase. Only the grid local
	// joins have a divisible probe side; the sweep and nested ablation
	// modes always run at node granularity.
	bigCut := total/int64(2*workers) + 1
	p.big, p.small = p.big[:0], p.small[:0]
	for _, id := range p.active {
		if gridKind && p.joinCost(id) >= bigCut && t.table[id].aCount() >= 4*workers {
			p.big = append(p.big, id)
		} else {
			p.small = append(p.small, id)
		}
	}
	small := p.small
	slices.SortStableFunc(small, func(x, y int32) int {
		return cmp.Compare(p.joinCost(y), p.joinCost(x))
	})

	locked := stats.NewLockedSink(sink)
	counters := p.counterSlice(workers)
	batches := make([]*stats.BatchSink, workers)
	for w := 0; w < workers; w++ {
		ws := p.scratch(w)
		ws.peakBytes = 0
		batches[w] = locked.NewBatch(sinkBatchSize)
	}

	// Stage 1: big nodes, one at a time: the tasks and the grid are built
	// once, here, and every worker probes an equal share of the tasks'
	// A objects.
	tk0 := stats.NewTicker(ctl)
	for _, id := range p.big {
		if ctl.Stopped() {
			break
		}
		bs := p.nodeB(id)
		ws0 := p.scratches[0]
		tasks := ws0.probeTasks(t, id, bs, &tk0, c)
		if tk0.Stopped() {
			break
		}
		g, csr := t.nodeGrid(id, bs, c, ws0)
		total := 0
		for i := range tasks {
			total += int(tasks[i].aEnd - tasks[i].aStart)
		}
		share := (total + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w*share < total; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tk := stats.NewTicker(ctl)
				// Worker w owns objects [skip, skip+left) of the tasks laid
				// end to end.
				skip, left := w*share, share
				for i := 0; i < len(tasks) && left > 0; i++ {
					part := tasks[i]
					size := int(part.aEnd - part.aStart)
					if skip >= size {
						skip -= size
						continue
					}
					take := min(size-skip, left)
					part.aStart += int32(skip)
					part.aEnd = part.aStart + int32(take)
					skip, left = 0, left-take
					t.gridProbe(g, csr, bs, &part, &tk, &counters[w], batches[w])
				}
			}(w)
		}
		wg.Wait()
	}

	// Stage 2: the remaining nodes through a work-stealing pool.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk := stats.NewTicker(ctl)
			for !tk.Stopped() {
				i := int(next.Add(1)) - 1
				if i >= len(small) {
					break
				}
				id := small[i]
				t.localJoin(id, p.nodeB(id), &tk, &counters[w], batches[w], p.scratches[w])
			}
			batches[w].Flush()
		}(w)
	}
	wg.Wait()

	for w := range counters {
		c.Add(counters[w])
	}
	for _, ws := range p.scratches[:workers] {
		if ws.peakBytes > p.peakGridBytes {
			p.peakGridBytes = ws.peakBytes
		}
	}
}
