package core

import (
	"slices"
	"testing"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/grid"
	"touch/internal/stats"
)

// mapGridJoin is the seed implementation of Algorithm 4 — B replicas
// hashed into a map[int64][]int32 — kept here as the reference the CSR
// grid must not diverge from: identical Comparisons, Replicas, occupied
// cell count and result set per node. With scan set it also models
// joinTask's dispatch: in pre-test dedup mode a lone task's A objects
// are tested against its one B object directly, and a node whose tasks
// are all lone builds no grid.
func (t *Tree) mapGridJoin(id int32, bs []geom.Object, postDedup, scan bool, c *stats.Counters, sink stats.Sink) int64 {
	scan = scan && !postDedup
	tasks := new(joinScratch).probeTasks(t, id, bs, nil, c)
	gridded := !scan
	var as []geom.Object // the A objects the grid's tasks let through
	for _, task := range tasks {
		// A lone scan tests each of the task's objects against one object's
		// box; the grid's pre-filter tests them against the task's MBR.
		if scan && task.lone >= 0 {
			c.Comparisons += int64(task.aEnd - task.aStart)
		} else {
			c.NodeTests += int64(task.aEnd - task.aStart)
		}
		for _, a := range objects(t.span(task.aStart, task.aEnd)) {
			if !a.Box.Intersects(task.mbr) {
				continue
			}
			if scan && task.lone >= 0 {
				c.Results++
				sink.Emit(a.ID, bs[task.lone].ID)
				continue
			}
			as = append(as, a)
		}
		gridded = gridded || task.lone < 0
	}
	if !gridded {
		return 0
	}
	g, _ := t.boundedGrid(id, bs, new(joinScratch))
	cells := make(map[int64][]int32)
	for i := range bs {
		lo, hi := g.Range(bs[i].Box)
		g.ForEachKey(lo, hi, func(k int64) {
			cells[k] = append(cells[k], int32(i))
			c.Replicas++
		})
	}
	for ai := range as {
		a := &as[ai]
		lo, hi := g.Range(a.Box)
		g.ForEachKey(lo, hi, func(k int64) {
			cc := g.KeyCoords(k)
			for _, bi := range cells[k] {
				b := &bs[bi]
				if postDedup {
					c.Comparisons++
					if a.Box.Intersects(b.Box) && g.RefCell(&a.Box, &b.Box) == cc {
						c.Results++
						sink.Emit(a.ID, b.ID)
					}
					continue
				}
				if g.RefCell(&a.Box, &b.Box) != cc {
					continue
				}
				c.Comparisons++
				if a.Box.Intersects(b.Box) {
					c.Results++
					sink.Emit(a.ID, b.ID)
				}
			}
		})
	}
	return int64(len(cells))
}

// mapReference is what the map-grid join of a whole probe reports.
type mapReference struct {
	c         stats.Counters
	pairs     []geom.Pair // sorted
	occupied  int64       // occupied cells, summed over the nodes
	peakBytes int64       // largest per-node analytic grid footprint
}

// runMapReference executes build + probe assign + map-grid join, lone
// tasks scanned when scan is set.
func runMapReference(a, b geom.Dataset, cfg Config, postDedup, scan bool) mapReference {
	var ref mapReference
	sink := &stats.CollectSink{}
	t := Build(a, cfg)
	p := t.NewProbe()
	p.Assign(b, nil, &ref.c)
	ws := &joinScratch{}
	for _, id := range p.active {
		before := ref.c.Replicas
		occupied := t.mapGridJoin(id, p.nodeB(id, ws), postDedup, scan, &ref.c, sink)
		ref.occupied += occupied
		bytes := occupied*stats.BytesPerCell + (ref.c.Replicas-before)*stats.BytesPerRef
		ref.peakBytes = max(ref.peakBytes, bytes)
	}
	ref.pairs = sortedPairs(sink.Pairs)
	return ref
}

// TestCSRMatchesMapGrid: the CSR grid must count exactly the same
// Comparisons and Replicas as the seed's map grid, in both dedup modes,
// across distributions and grid shapes (including configs that force the
// sparse CSR path via coarse node MBRs) — probed node by node, every
// task through the grid, and through JoinPhase with 1, 2 and 4 workers,
// where stage 1 of joinParallel chunks a big node's A objects across
// workers probing one shared grid. JoinPhase scans the tasks one B object
// reaches alone and grids a node only for its other tasks; its counters
// and peak must equal the map grid's run through the same dispatch, and
// its pairs the grid's. Node by node, every replica's ownership byte is
// checked against the boxes too; the map grid decides ownership from the
// boxes alone, through RefCell.
func TestCSRMatchesMapGrid(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		a, b    geom.Dataset
		chunked bool // the root must be big enough for the stage-1 fan-out
		bounded bool // boundedGrid must coarsen some node's grid
	}{
		{
			name: "uniform-default",
			cfg:  Config{},
			a:    datagen.UniformSet(700, 501).Expand(6),
			b:    datagen.UniformSet(2000, 502),
		},
		{
			name: "clustered-coarse",
			cfg:  Config{Partitions: 8, Fanout: 2},
			a:    datagen.ClusteredSet(500, 503).Expand(3),
			b:    datagen.ClusteredSet(1500, 504),
		},
		{
			name: "gaussian-highres",
			cfg:  Config{LocalCells: 200, CellFactor: 0.5},
			a:    datagen.GaussianSet(400, 505).Expand(4),
			b:    datagen.GaussianSet(1200, 506),
		},
		{
			// Leaf MBRs of ε-expanded objects overlap, so a third of B
			// lands in the root; probe objects span ~100 fine cells and B
			// objects several, so a candidate pair shares many cells
			// (7 tests per pair in post-dedup mode).
			name:    "one-big-node",
			cfg:     Config{Partitions: 8, Fanout: 8, LocalCells: 200, CellFactor: 0.25},
			a:       datagen.UniformSet(600, 507).Expand(40),
			b:       datagen.UniformSet(1500, 508).Expand(15),
			chunked: true,
		},
		{
			// One box over the whole universe among small ones, all of them
			// in one node — a tree of a single bucket, so every box is the
			// root's: sized from the mean extent that node's grid would hold
			// 1.2M replicas, so the CSR and the reference both join on the
			// coarsened grid.
			name: "one-universe-box",
			cfg:  Config{Partitions: 1},
			a:    datagen.UniformSet(600, 509),
			b: append(datagen.UniformSet(400, 510),
				geom.Object{ID: 400, Box: geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 1000})}),
			bounded: true,
		},
	} {
		for _, postDedup := range []bool{false, true} {
			cfg := tc.cfg
			if postDedup {
				cfg.LocalJoin = LocalJoinGridPostDedup
			}
			ref := runMapReference(tc.a, tc.b, cfg, postDedup, false)
			scanRef := runMapReference(tc.a, tc.b, cfg, postDedup, true)

			var c stats.Counters
			sink := &stats.CollectSink{}
			tr := Build(tc.a, cfg)
			p := tr.NewProbe()
			p.Assign(tc.b, nil, &c)
			ws := &joinScratch{}
			occupied := int64(0)
			coarsened := false
			for _, id := range p.active {
				bs := p.nodeB(id, ws)
				g, csr := tr.nodeGrid(id, bs, &c, ws)
				if sized, _ := tr.localGrid(id, bs); sized.Res != g.Res {
					coarsened = true
				}
				checkOwnership(t, tc.name, g, csr, bs)
				occupied += csr.occupied
				for _, task := range new(joinScratch).probeTasks(tr, id, bs, nil, &c) {
					tr.gridProbe(g, csr, bs, &task, nil, &c, sink)
				}
			}

			if coarsened != tc.bounded {
				t.Fatalf("%s postDedup=%v: premise: a grid coarsened: %v, want %v", tc.name, postDedup, coarsened, tc.bounded)
			}
			if c.Comparisons != ref.c.Comparisons {
				t.Errorf("%s postDedup=%v: Comparisons %d, map grid %d",
					tc.name, postDedup, c.Comparisons, ref.c.Comparisons)
			}
			if c.Replicas != ref.c.Replicas {
				t.Errorf("%s postDedup=%v: Replicas %d, map grid %d",
					tc.name, postDedup, c.Replicas, ref.c.Replicas)
			}
			if occupied != ref.occupied {
				t.Errorf("%s postDedup=%v: occupied cells %d, map grid %d",
					tc.name, postDedup, occupied, ref.occupied)
			}
			if !slices.Equal(sortedPairs(sink.Pairs), ref.pairs) {
				t.Errorf("%s postDedup=%v: pair set differs from map grid", tc.name, postDedup)
			}

			for _, workers := range []int{1, 2, 4} {
				var c stats.Counters
				sink := &stats.CollectSink{}
				p.SetWorkers(workers)
				p.Assign(tc.b, nil, &c)
				p.JoinPhase(nil, &c, sink)
				if tc.chunked && workers > 1 && len(p.big) == 0 {
					t.Fatalf("%s workers=%d: premise: no node was chunked across workers", tc.name, workers)
				}
				if c != scanRef.c {
					t.Errorf("%s postDedup=%v workers=%d: counters %+v, map grid %+v",
						tc.name, postDedup, workers, c, scanRef.c)
				}
				// The peak is one node's occupied cells and replicas: the
				// occupied-cell count as the parallel path accounts it.
				if p.peakGridBytes != scanRef.peakBytes {
					t.Errorf("%s postDedup=%v workers=%d: peak grid bytes %d, map grid %d",
						tc.name, postDedup, workers, p.peakGridBytes, scanRef.peakBytes)
				}
				if !slices.Equal(sortedPairs(sink.Pairs), ref.pairs) {
					t.Errorf("%s postDedup=%v workers=%d: pair set differs from map grid",
						tc.name, postDedup, workers)
				}
			}
		}
	}
}

// TestCSRSparsePath forces the sparse (sort-based) CSR build by making
// the cell space vastly exceed the replica count, and cross-checks it
// against the dense build on the same inputs: the same run in every
// cell, and the same ownership byte beside every replica of it.
func TestCSRSparsePath(t *testing.T) {
	universe := geom.NewBox(geom.Point{0, 0, 0}, geom.Point{1000, 1000, 1000})
	g := grid.New(universe, 120) // 1.7M cells, above any dense slack for a handful of replicas
	bs := geom.Dataset{
		{ID: 1, Box: geom.NewBox(geom.Point{1, 1, 1}, geom.Point{30, 30, 30})},
		{ID: 2, Box: geom.NewBox(geom.Point{25, 25, 25}, geom.Point{40, 28, 28})},
		{ID: 3, Box: geom.NewBox(geom.Point{990, 990, 990}, geom.Point{999, 999, 999})},
	}
	ws := &joinScratch{}
	sparse := ws.buildCSR(g, ws.cellRanges(g, bs))
	if sparse.dense {
		t.Fatal("premise: expected the sparse path")
	}
	// Dense reference on a fresh scratch with the slack checks bypassed.
	ws2 := &joinScratch{}
	ref := ws2.buildDense(g, g.Cells(), ws2.cellRanges(g, bs))
	if sparse.replicas != ref.replicas || sparse.occupied != ref.occupied {
		t.Fatalf("sparse/dense disagree: replicas %d/%d occupied %d/%d",
			sparse.replicas, ref.replicas, sparse.occupied, ref.occupied)
	}
	lo, hi := grid.Coords{0, 0, 0}, grid.Coords{g.Res[0] - 1, g.Res[1] - 1, g.Res[2] - 1}
	g.ForEachKey(lo, hi, func(k int64) {
		run, own := sparse.run(k)
		refRun, refOwn := ref.run(k)
		if !slices.Equal(run, refRun) {
			t.Fatalf("cell %d: sparse run %v, dense run %v", k, run, refRun)
		}
		if !slices.Equal(own, refOwn) {
			t.Fatalf("cell %d: sparse ownership %v, dense ownership %v", k, own, refOwn)
		}
	})
}

// checkOwnership checks every replica of a built grid against the rule
// recomputed from the boxes: every cell of a B object's range holds it,
// with bit d of its ownership byte set iff the cell's coordinate along d
// is the object's first.
func checkOwnership(t *testing.T, name string, g *grid.Grid, csr *csrGrid, bs []geom.Object) {
	t.Helper()
	for bi := range bs {
		lo, hi := g.Range(bs[bi].Box)
		g.ForEachKey(lo, hi, func(k int64) {
			run, own := csr.run(k)
			j, found := slices.BinarySearch(run, int32(bi))
			if !found || len(own) != len(run) {
				t.Fatalf("%s: cell %d: B object %d missing from run %v (ownership %v)", name, k, bi, run, own)
			}
			cc := g.KeyCoords(k)
			want := uint8(0)
			for d, bit := range []uint8{ownX, ownY, ownZ} {
				if cc[d] == lo[d] {
					want |= bit
				}
			}
			if own[j] != want {
				t.Fatalf("%s: cell %v: B object %d (first cell %v) has ownership %03b, want %03b",
					name, cc, bi, lo, own[j], want)
			}
		})
	}
}
