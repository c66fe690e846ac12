// Queries: the TOUCH tree as a general query engine.
//
// The paper builds its hierarchy to answer one question — a batch
// spatial join — but the built structure is a data-oriented tree with
// node MBRs over a contiguous object arena, which is everything a
// point, range or k-nearest-neighbor query needs. This example builds
// one index and serves all three single-probe query shapes from it,
// verifying every answer against the brute-force scan — and then keeps
// serving them while the dataset changes: a Mutable layers inserts and
// tombstones over the frozen tree, and every View of it answers exactly
// as an index rebuilt from the live objects would. Run with:
//
//	go run ./examples/queries [-n 50000] [-queries 1000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	"touch"
)

func main() {
	var (
		n       = flag.Int("n", 50_000, "indexed dataset size")
		queries = flag.Int("queries", 1_000, "queries per shape")
	)
	flag.Parse()

	a := touch.GenerateClustered(*n, 1)
	start := time.Now()
	idx := touch.BuildIndex(a, touch.TOUCHConfig{})
	fmt.Printf("index built on %d objects in %v (build happens once)\n",
		len(a), time.Since(start).Round(time.Millisecond))

	rng := rand.New(rand.NewSource(2))
	point := func() touch.Point {
		return touch.Point{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}
	}

	// Range: all objects intersecting a query box.
	start = time.Now()
	found := 0
	for i := 0; i < *queries; i++ {
		lo := point()
		hi := touch.Point{lo[0] + 40, lo[1] + 40, lo[2] + 40}
		ids, err := idx.RangeQuery(touch.NewBox(lo, hi))
		if err != nil {
			log.Fatal(err)
		}
		found += len(ids)
	}
	report("range", *queries, found, time.Since(start))

	// Point: all objects containing a location.
	start = time.Now()
	found = 0
	for i := 0; i < *queries; i++ {
		p := point()
		ids, err := idx.PointQuery(p[0], p[1], p[2])
		if err != nil {
			log.Fatal(err)
		}
		found += len(ids)
	}
	report("point", *queries, found, time.Since(start))

	// kNN: the 10 nearest objects, best-first over node MBRs.
	start = time.Now()
	found = 0
	for i := 0; i < *queries; i++ {
		nbrs, err := idx.KNN(point(), 10)
		if err != nil {
			log.Fatal(err)
		}
		found += len(nbrs)
	}
	report("knn-10", *queries, found, time.Since(start))

	// Spot-verify a sample of each shape against the brute-force scan.
	for i := 0; i < 20; i++ {
		q := touch.NewBox(point(), point())
		ids, err := idx.RangeQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		var want []touch.ID
		for j := range a {
			if a[j].Box.Intersects(q) {
				want = append(want, a[j].ID)
			}
		}
		slices.Sort(want)
		if !slices.Equal(ids, want) {
			log.Fatalf("range query %d diverged from the exhaustive scan", i)
		}

		p := point()
		nbrs, err := idx.KNN(p, 5)
		if err != nil {
			log.Fatal(err)
		}
		for h := 1; h < len(nbrs); h++ {
			prev, cur := nbrs[h-1], nbrs[h]
			if cur.Distance < prev.Distance ||
				(cur.Distance == prev.Distance && cur.ID < prev.ID) {
				log.Fatalf("kNN order violated at %d: %v after %v", h, cur, prev)
			}
		}
		for _, nb := range nbrs {
			if got := a[nb.ID].Box.PointDistance(p); got != nb.Distance {
				log.Fatalf("kNN distance mismatch for %d: %g vs %g", nb.ID, nb.Distance, got)
			}
		}
	}
	fmt.Println("verified: range results and kNN order match the exhaustive scan")

	// The same surface over a dataset that changes. Each batch deletes
	// some objects and inserts new ones (fresh IDs, never reused); a
	// background compaction folds the delta into a new base whenever it
	// reaches the threshold. One View is one immutable generation: both
	// questions below are answered from the same state, and must match an
	// index rebuilt from that state's live objects.
	m, err := touch.NewMutable(a, touch.TOUCHConfig{})
	if err != nil {
		log.Fatal(err)
	}
	m.SetCompactThreshold(512)
	q := touch.NewBox(touch.Point{100, 100, 100}, touch.Point{400, 400, 400})
	for batch := 0; batch < 20; batch++ {
		live := m.Dataset()
		var dels []touch.ID
		ins := make([]touch.Box, 40)
		for i := range ins {
			lo := point()
			ins[i] = touch.NewBox(lo, touch.Point{lo[0] + 10, lo[1] + 10, lo[2] + 10})
			if i%4 == 0 {
				dels = append(dels, live[rng.Intn(len(live))].ID)
			}
		}
		m.Delete(dels)
		if _, err := m.Insert(ins); err != nil {
			log.Fatal(err)
		}
		v, oracle := m.View(), touch.BuildIndex(m.Dataset(), touch.TOUCHConfig{})
		got, _ := v.RangeQuery(q)
		want, _ := oracle.RangeQuery(q)
		gotK, _ := v.KNN(q.Center(), 10)
		wantK, _ := oracle.KNN(q.Center(), 10)
		if !slices.Equal(got, want) || !slices.Equal(gotK, wantK) {
			log.Fatalf("batch %d: the View diverged from a rebuild of its live objects", batch)
		}
	}
	st := m.Stats()
	fmt.Printf("20 update batches: %d live objects, %d inserts and %d tombstones pending, %d compactions — every View matched its rebuild\n",
		st.Objects, st.DeltaInserts, st.DeltaTombstones, st.Compactions)
}

func report(shape string, queries, found int, d time.Duration) {
	fmt.Printf("%-7s %d queries in %v (%.0f µs/query, %.1f results/query)\n",
		shape, queries, d.Round(time.Millisecond),
		float64(d.Microseconds())/float64(queries), float64(found)/float64(queries))
}
