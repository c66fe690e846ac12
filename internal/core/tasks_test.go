package core

import (
	"fmt"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/nl"
	"touch/internal/stats"
)

// nodeTasks runs probeTasks for every active node of an assigned probe
// and returns a copy of each node's list, keyed by node id.
func nodeTasks(tr *Tree, p *Probe, c *stats.Counters) map[int32][]probeTask {
	ws := &joinScratch{}
	out := make(map[int32][]probeTask, len(p.active))
	for _, id := range p.active {
		out[id] = append([]probeTask(nil), ws.probeTasks(tr, id, p.nodeB(id), nil, c)...)
	}
	return out
}

// TestProbeTasksLoseNoPair: whatever the descent prunes, every pair of
// the nested-loop oracle must stay reachable — its A object inside a
// task of the node its B object was assigned to, and meeting that task's
// MBR — and a node's tasks must be disjoint, ascending and inside the
// node's arena range, the order a scan of the whole subtree would visit.
func TestProbeTasksLoseNoPair(t *testing.T) {
	const nA = 600
	box := geom.NewBox(geom.Point{400, 400, 400}, geom.Point{600, 600, 600})
	identical := make(geom.Dataset, nA)
	for i := range identical {
		identical[i] = geom.Object{ID: geom.ID(i), Box: box}
	}
	planar := datagen.UniformSet(nA, 602)
	for i := range planar {
		planar[i].Box.Min[2], planar[i].Box.Max[2] = 500, 500
	}
	for _, shape := range []struct {
		name string
		a    geom.Dataset
		cfg  Config
	}{
		{name: "uniform", a: datagen.UniformSet(nA, 600).Expand(6)},
		{name: "clustered", a: datagen.ClusteredSet(nA, 601).Expand(6)},
		{name: "all-identical", a: identical},
		{name: "planar", a: planar.Expand(6)},
		{name: "single-leaf", a: datagen.UniformSet(nA, 603).Expand(6), cfg: Config{Partitions: 1}},
		{name: "leaves-of-three-blocks", a: datagen.ClusteredSet(nA, 604).Expand(6), cfg: Config{Partitions: 4}},
	} {
		tr := Build(shape.a, shape.cfg)
		arenaPos := make(map[geom.ID]int32, len(tr.arena))
		for i := range tr.arena {
			arenaPos[tr.arena[i].ID] = int32(i)
		}
		for _, nB := range []int{1, 8, 64, 4 * nA} {
			name := fmt.Sprintf("%s/B=%d", shape.name, nB)
			b := datagen.UniformSet(nB, int64(610+nB)).Expand(20)
			p := tr.NewProbe()
			var c stats.Counters
			p.Assign(b, nil, &c)
			assigned := make(map[geom.ID]int32, len(b))
			for _, id := range p.active {
				for _, o := range p.nodeB(id) {
					assigned[o.ID] = id
				}
			}
			tasks := nodeTasks(tr, p, &c)
			for id, ts := range tasks {
				n := &tr.table[id]
				next := n.aStart
				for _, task := range ts {
					if task.aStart < next || task.aEnd <= task.aStart || task.aEnd > n.aEnd {
						t.Fatalf("%s: node %d [%d,%d): task [%d,%d) after offset %d",
							name, id, n.aStart, n.aEnd, task.aStart, task.aEnd, next)
					}
					next = task.aEnd
				}
			}
			pairs := 0
			for pair := range oracle(shape.a, b) {
				pairs++
				id, ok := assigned[pair.B]
				if !ok {
					t.Fatalf("%s: B object %d of pair %v was filtered", name, pair.B, pair)
				}
				pos := arenaPos[pair.A]
				reached := false
				for _, task := range tasks[id] {
					if task.aStart <= pos && pos < task.aEnd {
						reached = tr.arena[pos].Box.Intersects(task.mbr)
					}
				}
				if !reached {
					t.Fatalf("%s: pair %v: A object at arena %d is in no task of node %d that it meets",
						name, pair, pos, id)
				}
			}
			if nB == 4*nA && pairs == 0 {
				t.Fatalf("%s: premise: the oracle found no pair", name)
			}
		}
	}
}

// TestSmallProbeSkipsTheIndex: a join's cost follows the probe, not the
// index. 256 boxes against 50,000 objects must leave most of the arena
// below the nodes they were assigned to unvisited — structurally, not by
// the clock — and still find every pair, for 1 and 4 workers. In the
// paper's buckets (49 objects) the tasks are leaves; in buckets of 782
// the descent has to go on into the blocks to skip as much.
func TestSmallProbeSkipsTheIndex(t *testing.T) {
	a := datagen.UniformSet(50_000, 620)
	b := datagen.UniformSet(256, 621).Expand(5)
	var want stats.Counters
	nl.Join(a, b, nil, &want, &stats.CountSink{})
	for _, partitions := range []int{DefaultPartitions, 64} {
		tr := Build(a, Config{Partitions: partitions})
		p := tr.NewProbe()
		var c stats.Counters
		p.Assign(b, nil, &c)
		below, visited, longest := 0, 0, 0
		for id, ts := range nodeTasks(tr, p, &c) {
			below += tr.table[id].aCount()
			for _, task := range ts {
				visited += int(task.aEnd - task.aStart)
				longest = max(longest, int(task.aEnd-task.aStart))
			}
		}
		if visited*4 >= below {
			t.Fatalf("%d buckets: tasks cover %d A objects of the %d below the active nodes, want under a quarter", partitions, visited, below)
		}
		if longest > leafBlock {
			t.Fatalf("%d buckets: a task of %d A objects, want at most a block of %d", partitions, longest, leafBlock)
		}
		for _, workers := range []int{1, 4} {
			var c stats.Counters
			sink := &stats.CountSink{}
			p.SetWorkers(workers)
			p.Assign(b, nil, &c)
			p.JoinPhase(nil, &c, sink)
			if c.Results != want.Results || sink.N != want.Results {
				t.Fatalf("%d buckets, %d workers: Results %d (emitted %d), nested loop %d", partitions, workers, c.Results, sink.N, want.Results)
			}
		}
	}
}

// joinCounts is the paper's currency for one join: what TOUCH did, not
// how long it took. Every field is exact and machine-independent.
type joinCounts struct {
	Comparisons, NodeTests, Filtered, Results, Replicas int64
	StaticBytes, ProbeBytes                             int64
}

// TestJoinCountsGolden pins the counts of three joins — the three ways
// the benchmark uses the engine, at a size that runs in well under a
// second — to the literal table below, for 1 and 2 workers. A change
// that moves a count must move the table with it, so the old and the new
// number both show in its diff.
//
// The table last moved when the upper levels began to nest (Build, nest).
// B objects sink to small nodes instead of staying at a root whose
// children overlapped, so each is gridded against a bucket's worth of A:
// Comparisons and Replicas are down, and so is ProbeBytes, the peak
// grid being a small node's and no longer the root's. Filtered is up,
// because a tree whose siblings do not overlap shows its dead space.
// NodeTests is the sum of the descent, which now runs the tree's whole
// height for most objects, and of the probe tasks' filter passes, which
// shrank with the nodes: up where |B| ≥ |A| (the first two rows), down
// where the probe is small. StaticBytes is down by the nodes the old
// builder's rounding added (every inner node now has at least two
// children).
func TestJoinCountsGolden(t *testing.T) {
	axons, dendrites := datagen.GenerateNeuro(datagen.ScaledNeuroConfig(42, 1.0/50))
	for _, tc := range []struct {
		name string
		a, b geom.Dataset
		cfg  Config
		want joinCounts
	}{
		{
			// join_sparse's shape: a one-shot join, the tree built on the
			// ε-expanded smaller side.
			name: "uniform-20Kx60K",
			a:    datagen.UniformSet(20_000, 42).Expand(5),
			b:    datagen.UniformSet(60_000, 43),
			want: joinCounts{
				Comparisons: 30623, NodeTests: 1437388, Filtered: 1526, Results: 1551, Replicas: 62092,
				StaticBytes: 351928, ProbeBytes: 514056,
			},
		},
		{
			// join_dense's shape: a prebuilt tree on the axons, probed
			// with the ε-expanded dendrites.
			name: "neuro-1/50",
			a:    axons.Objects(),
			b:    dendrites.Objects().Expand(5),
			want: joinCounts{
				Comparisons: 98619, NodeTests: 324028, Filtered: 17835, Results: 22883, Replicas: 50774,
				StaticBytes: 294968, ProbeBytes: 162784,
			},
		},
		{
			// The served join's shape — testutil's probe-100x-smaller, a
			// handful of boxes against a large index — in buckets of 375
			// objects, close to the 488 of the benchmark's 500K index: the
			// probe's tasks are leaf blocks, not leaves.
			name: "probe-100x-smaller",
			a:    datagen.UniformSet(6000, 7014).Expand(8),
			b:    datagen.UniformSet(60, 7015).Expand(30),
			cfg:  Config{Partitions: 16},
			want: joinCounts{
				Comparisons: 447, NodeTests: 1170, Filtered: 0, Results: 167, Replicas: 157,
				StaticBytes: 55272, ProbeBytes: 3040,
			},
		},
	} {
		tr := Build(tc.a, tc.cfg)
		for _, workers := range []int{1, 2} {
			p := tr.NewProbe()
			p.SetWorkers(workers)
			var c stats.Counters
			p.Assign(tc.b, nil, &c)
			p.JoinPhase(nil, &c, &stats.CountSink{})
			got := joinCounts{
				Comparisons: c.Comparisons, NodeTests: c.NodeTests, Filtered: c.Filtered,
				Results: c.Results, Replicas: c.Replicas,
				StaticBytes: tr.StaticBytes(), ProbeBytes: p.MemoryBytes(),
			}
			if got != tc.want {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}
