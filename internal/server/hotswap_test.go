package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"touch"
	"touch/internal/api"
)

// TestConcurrentClientsWithHotRebuild is the serving-correctness
// centerpiece: 8 client goroutines mix range, kNN and join traffic
// against one dataset while the main goroutine hot-rebuilds it over and
// over with alternating content. Run under -race in CI. Invariants:
//
//   - no request ever fails (rebuilds are invisible to readers),
//   - every response names the version it answered from, and its payload
//     is exactly the direct-Index answer for that version — a mixed-
//     version answer or a torn swap would mismatch both oracles.
func TestConcurrentClientsWithHotRebuild(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 64})

	// Odd versions serve dsOdd, even versions dsEven.
	dsOdd := touch.GenerateUniform(700, 101)
	dsEven := touch.GenerateClustered(700, 102)
	const partitions = 32
	idxOdd := touch.BuildIndex(dsOdd, touch.TOUCHConfig{Partitions: partitions})
	idxEven := touch.BuildIndex(dsEven, touch.TOUCHConfig{Partitions: partitions})

	// A fixed query workload with per-parity oracles.
	type rangeOracle struct {
		box  touch.Box
		want [2][]touch.ID // [odd, even]
	}
	type knnOracle struct {
		pt   touch.Point
		k    int
		want [2][]touch.Neighbor
	}
	probe := touch.GenerateUniform(300, 103)
	var joinWant [2][]touch.Pair
	for p, idx := range []*touch.Index{idxOdd, idxEven} {
		res, err := idx.Join(context.Background(), probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.SortPairs()
		joinWant[p] = res.Pairs
	}
	var ranges []rangeOracle
	var knns []knnOracle
	for i := 0; i < 6; i++ {
		lo := float64(i * 150)
		box := touch.NewBox(touch.Point{lo, lo, lo}, touch.Point{lo + 220, lo + 220, lo + 220})
		ro := rangeOracle{box: box}
		pt := touch.Point{lo + 40, lo + 80, lo + 10}
		ko := knnOracle{pt: pt, k: 5 + i}
		for p, idx := range []*touch.Index{idxOdd, idxEven} {
			ids, err := idx.RangeQuery(box)
			if err != nil {
				t.Fatal(err)
			}
			ro.want[p] = ids
			nbrs, err := idx.KNN(pt, ko.k)
			if err != nil {
				t.Fatal(err)
			}
			ko.want[p] = nbrs
		}
		ranges = append(ranges, ro)
		knns = append(knns, ko)
	}

	ts.loadAndWait("hot", dsOdd, partitions) // version 1 = odd
	parity := func(version int64) int {
		if version%2 == 1 {
			return 0
		}
		return 1
	}

	const clients = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (cl + it) % 3 {
				case 0: // range
					o := ranges[(cl+it)%len(ranges)]
					status, body := ts.postJSON("/v1/datasets/hot/query", api.QueryRequest{
						Type: "range",
						Box: []float64{o.box.Min[0], o.box.Min[1], o.box.Min[2],
							o.box.Max[0], o.box.Max[1], o.box.Max[2]},
					})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d it %d: range status %d: %s", cl, it, status, body)
						return
					}
					var qr api.QueryResponse
					if err := json.Unmarshal(body, &qr); err != nil {
						errs <- err
						return
					}
					want := o.want[parity(qr.Version)]
					if len(qr.IDs) != len(want) {
						errs <- fmt.Errorf("client %d it %d: range v%d: %d ids, oracle %d",
							cl, it, qr.Version, len(qr.IDs), len(want))
						return
					}
					for j := range want {
						if qr.IDs[j] != want[j] {
							errs <- fmt.Errorf("client %d it %d: range v%d: id %d differs", cl, it, qr.Version, j)
							return
						}
					}
				case 1: // knn
					o := knns[(cl+it)%len(knns)]
					status, body := ts.postJSON("/v1/datasets/hot/query", api.QueryRequest{
						Type: "knn", Point: o.pt[:], K: o.k,
					})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d it %d: knn status %d: %s", cl, it, status, body)
						return
					}
					var qr api.QueryResponse
					if err := json.Unmarshal(body, &qr); err != nil {
						errs <- err
						return
					}
					want := o.want[parity(qr.Version)]
					if len(qr.Neighbors) != len(want) {
						errs <- fmt.Errorf("client %d it %d: knn v%d: %d neighbors, oracle %d",
							cl, it, qr.Version, len(qr.Neighbors), len(want))
						return
					}
					for j, n := range want {
						got := qr.Neighbors[j]
						if got.ID != n.ID || got.Distance != n.Distance {
							errs <- fmt.Errorf("client %d it %d: knn v%d: neighbor %d differs", cl, it, qr.Version, j)
							return
						}
					}
				case 2: // join
					status, body := ts.postJSON("/v1/datasets/hot/join", api.JoinRequest{Boxes: boxRows(probe)})
					if status != http.StatusOK {
						errs <- fmt.Errorf("client %d it %d: join status %d: %s", cl, it, status, body)
						return
					}
					var jr api.JoinResponse
					if err := json.Unmarshal(body, &jr); err != nil {
						errs <- err
						return
					}
					want := joinWant[parity(jr.Version)]
					if len(jr.Pairs) != len(want) {
						errs <- fmt.Errorf("client %d it %d: join v%d: %d pairs, oracle %d",
							cl, it, jr.Version, len(jr.Pairs), len(want))
						return
					}
					for j, p := range want {
						if jr.Pairs[j][0] != p.A || jr.Pairs[j][1] != p.B {
							errs <- fmt.Errorf("client %d it %d: join v%d: pair %d differs", cl, it, jr.Version, j)
							return
						}
					}
				}
			}
		}(cl)
	}

	// The hot rebuild loop: re-POST the dataset with alternating content
	// while the clients hammer it. Loads go through HTTP like everything
	// else; builds happen in the background.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for v := int64(2); v <= 7; v++ {
			ds := dsEven
			if v%2 == 1 {
				ds = dsOdd
			}
			req := loadRequest{Boxes: boxRows(ds)}
			req.Config.Partitions = partitions
			status, body := ts.postJSON("/v1/datasets/hot", req)
			if status != http.StatusAccepted {
				errs <- fmt.Errorf("hot reload v%d: status %d: %s", v, status, body)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-swapDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles, the newest accepted version serves.
	ts.waitServing("hot", 7)
	status, body := ts.postJSON("/v1/datasets/hot/query", api.QueryRequest{Type: "point", Point: []float64{1, 1, 1}})
	if status != http.StatusOK {
		t.Fatalf("final query: %d %s", status, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Version != 7 {
		t.Fatalf("final serving version %d, want 7", qr.Version)
	}
}

// TestCatalogVersionMonotonic: rapid reloads may finish building at odd
// times, but the serving version must never move backwards and must end
// at the newest accepted version.
func TestCatalogVersionMonotonic(t *testing.T) {
	cat := newCatalog(nil)
	ds := touch.GenerateUniform(150, 111)
	cfg := touch.TOUCHConfig{Partitions: 8}

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	var maxSeen int64
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap, ok := snapshotOf(cat, "m"); ok && snap != nil {
				if snap.version < maxSeen {
					t.Errorf("serving version regressed: %d after %d", snap.version, maxSeen)
					return
				}
				maxSeen = snap.version
			}
		}
	}()

	const loads = 20
	var wg sync.WaitGroup
	for i := 0; i < loads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cat.load("m", ds, cfg, false, 0)
		}()
	}
	wg.Wait()

	// The stale-build skip must leave the building counter at zero — once
	// the superseded builds queued behind the newest one have had their
	// turn at the build lock, which can be after version 20 is serving.
	e := cat.entryFor("m")
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := snapshotOf(cat, "m")
		e.mu.Lock()
		building := e.building
		e.mu.Unlock()
		if snap != nil && snap.version == loads && building == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged to version %d with no build pending (at %v, building %d)", loads, snap, building)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	watcher.Wait()
	if info := e.info(); info.Status != "ready" || info.Version != loads {
		t.Fatalf("final info %+v", info)
	}
}
