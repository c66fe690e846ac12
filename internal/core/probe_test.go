package core

import (
	"runtime"
	"testing"
	"time"

	"touch/internal/datagen"
	"touch/internal/geom"
	"touch/internal/stats"
)

// TestWarmJoinAllocatesNothing: a warmed single-worker probe assigns and
// joins with no heap allocation. The index CSR, each node's gathered B
// objects, its grid, the grid's CSR arrays and their header all live in
// buffers the first join grew. Two shapes: a probe larger than the tree,
// and the served join's, a probe of 1% of the tree's size, most of whose
// tasks are lone scans.
func TestWarmJoinAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nA, nB int
	}{
		{name: "20Kx60K", nA: 20_000, nB: 60_000},
		{name: "served-50Kx500", nA: 50_000, nB: 500},
	} {
		a := datagen.UniformSet(tc.nA, 451).Expand(5)
		b := datagen.UniformSet(tc.nB, 452)
		p := Build(a, Config{}).NewProbe()
		var c stats.Counters
		sink := &stats.CountSink{}
		join := func() {
			p.Assign(b, nil, &c)
			p.JoinPhase(nil, &c, sink)
		}
		join()
		if sink.N == 0 {
			t.Fatalf("%s: premise: the join found no pair", tc.name)
		}
		if allocs := testing.AllocsPerRun(3, join); allocs != 0 {
			t.Fatalf("%s: a warmed Assign+JoinPhase allocated %.0f times, want 0", tc.name, allocs)
		}
	}
}

// TestProbeDropsB: a probe kept for reuse after its join holds no
// reference to the dataset it joined, so dropping the dataset frees it.
func TestProbeDropsB(t *testing.T) {
	p := Build(datagen.UniformSet(2000, 453).Expand(5), Config{}).NewProbe()
	freed := make(chan struct{})
	func() {
		b := datagen.UniformSet(5000, 454)
		runtime.SetFinalizer(&b[0], func(*geom.Object) { close(freed) })
		var c stats.Counters
		p.Assign(b, nil, &c)
		p.JoinPhase(nil, &c, &stats.CountSink{})
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the probe keeps the joined dataset alive")
	}
	runtime.KeepAlive(p)
}
