package main

import (
	"runtime"
	"time"

	"touch"
	"touch/internal/core"
	"touch/internal/stats"
	"touch/internal/str"
)

// joinInput is one pair of datasets to join and, for join_dense, the
// prebuilt index on the first.
type joinInput struct {
	a, b touch.Dataset
	idx  *touch.Index // join_dense only
}

// joinFixture is what a join workload sets up. It holds several inputs
// drawn from the seed and the joins cycle through them: the join phase's
// scratch growth depends chaotically on the data (86, 105 or 131 MB per
// join_sparse join, by seed), and averaging a few inputs is what keeps
// alloc_kb_per_op from jumping by a quarter between two seeds.
type joinFixture struct{ in []*joinInput }

// buildJoinFixture generates the inputs of a join workload from the
// seed. join_sparse is the paper's synthetic setting (uniform boxes, the
// smaller side builds the tree inside every join); join_dense is its
// neuroscience setting through the prebuilt-index path of §4.3.
func (r *run) buildJoinFixture() (*joinFixture, error) {
	fx := &joinFixture{}
	inputs := r.sz.joinInputs
	if r.cfg.trace {
		inputs = 1 // the traced run prices one input's pipeline by hand
	}
	for k := 0; k < inputs; k++ {
		seed := r.cfg.seed + 1000*int64(k)
		in := &joinInput{}
		if r.cfg.workload == wlJoinSparse {
			in.a = touch.GenerateUniform(r.sz.sparseA, seed)
			in.b = touch.GenerateUniform(r.sz.sparseB, seed+1)
		} else {
			cfg := touch.DefaultNeuroConfig(seed)
			cfg.Axons /= r.sz.neuroDiv
			cfg.Dendrites /= r.sz.neuroDiv
			axons, dendrites := touch.GenerateNeuro(cfg)
			in.a, in.b = axons.Objects(), dendrites.Objects()
			in.idx = touch.BuildIndex(in.a, touch.TOUCHConfig{})
		}
		fx.in = append(fx.in, in)
	}
	return fx, nil
}

// join runs the workload's public join call once.
func (in *joinInput) join() (*touch.Result, error) {
	if in.idx != nil {
		return in.idx.DistanceJoin(in.b, eps, nil)
	}
	return touch.DistanceJoin(touch.AlgTOUCH, in.a, in.b, eps, nil)
}

// oracle is the reference pair set of one input, computed once by PBSM —
// a different algorithm, so a TOUCH bug cannot hide in it.
type oracle struct {
	want  uint64
	stats touch.Stats
	took  time.Duration
}

// joinOracles computes the reference of every input and records the
// inputs' fingerprint and sizes.
func (r *run) joinOracles(fx *joinFixture) ([]*oracle, error) {
	var fp fingerprint
	var orcs []*oracle
	for _, in := range fx.in {
		fp.dataset(in.a)
		fp.dataset(in.b)
		start := time.Now()
		// KeepOrder: the pair set is the same either way; the order
		// heuristic is not what is being checked.
		res, err := touch.DistanceJoin(touch.AlgPBSM100, in.a, in.b, eps, &touch.Options{KeepOrder: true})
		if err != nil {
			return nil, err
		}
		orc := &oracle{want: hashPairs(res.Pairs), stats: res.Stats, took: time.Since(start)}
		orcs = append(orcs, orc)
		r.res.OracleS += orc.took.Seconds()
	}
	r.res.Inputs = fp.String()
	r.res.Sizes["inputs"] = len(fx.in)
	r.res.Sizes["a"] = len(fx.in[0].a)
	r.res.Sizes["b"] = len(fx.in[0].b)
	return orcs, nil
}

// runJoin is the end-to-end run of join_sparse and join_dense: a fixed
// number of joins with pairs materialised, single-threaded, each answer
// compared with the oracle's count and pair checksum.
func (r *run) runJoin() error {
	fx, err := setupMedian(r, 3, r.buildJoinFixture, func(*joinFixture) {})
	if err != nil {
		return err
	}
	orcs, err := r.joinOracles(fx)
	if err != nil {
		return err
	}

	n := r.sz.sparseJoins
	if r.cfg.workload == wlJoinDense {
		n = r.sz.denseJoins
	}
	r.res.Ops["joins"] = n
	times := make(durations, 0, n)
	before := memBefore()
	start := time.Now()
	for i := 0; i < n; i++ {
		k := i % len(fx.in)
		r.calibrate()
		var res *touch.Result
		var err error
		d := r.timed("join", -1, i, func() { res, err = fx.in[k].join() })
		var got uint64
		if err == nil {
			got = hashPairs(res.Pairs)
		}
		if r.check("join", i, err, got, orcs[k].want) {
			times = append(times, d)
		}
	}
	r.res.WallS = time.Since(start).Seconds()
	r.setTime("join_s", times)
	r.memAfter(before, int64(n), fx)
	return nil
}

// traceJoin is the traced run of the join workloads: next to the whole
// public call it executes the pipeline by hand — Dataset.Expand ->
// core.Build -> Tree.NewProbe -> Probe.Assign -> Probe.JoinPhase into a
// collecting sink — with a span around each call, so every layer under
// join_s has its own price and the engine's counts are on record.
func (r *run) traceJoin() error {
	all, err := r.buildJoinFixture()
	if err != nil {
		return err
	}
	orcs, err := r.joinOracles(all)
	if err != nil {
		return err
	}
	fx, orc := all.in[0], orcs[0]
	n := r.sz.tracedJoins
	r.res.Ops["joins"] = n

	// Each round runs the public call and the same join by hand, so the
	// two are compared at the same moment of a drifting machine. By hand,
	// join_sparse expands and indexes the smaller dataset inside every
	// join with a fresh probe, as core.Join does; join_dense expands the
	// probe side and reuses one probe against the tree built once, as the
	// Index's pool does.
	var whole, expand, build, assign, join durations
	var mallocs uint64
	var c stats.Counters
	var tree *core.Tree
	var probe *core.Probe
	public := func(i int) {
		var res *touch.Result
		var err error
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d := r.timed("touch.join", -1, i, func() { res, err = fx.join() })
		runtime.ReadMemStats(&ms1)
		var got uint64
		if err == nil {
			got = hashPairs(res.Pairs)
		}
		if r.check("join", i, err, got, orc.want) {
			mallocs = ms1.Mallocs - ms0.Mallocs
			whole = append(whole, d)
		}
	}
	for i := 0; i < n; i++ {
		public(i)

		parent := r.tr.begin("pipeline", -1, i)
		probeSide := fx.b
		if fx.idx == nil {
			var expanded touch.Dataset
			expand = append(expand, r.timed("geom.expand", parent, i, func() { expanded = fx.a.Expand(eps) }))
			build = append(build, r.timed("core.build", parent, i, func() { tree = core.Build(expanded, core.Config{}) }))
			probe = tree.NewProbe()
		} else {
			expand = append(expand, r.timed("geom.expand", parent, i, func() { probeSide = fx.b.Expand(eps) }))
			if tree == nil {
				build = append(build, r.timed("core.build", parent, i, func() { tree = core.Build(fx.a, core.Config{}) }))
				probe = tree.NewProbe()
			}
		}
		c = stats.Counters{}
		sink := &stats.CollectSink{}
		assign = append(assign, r.timed("core.assign", parent, i, func() { probe.Assign(probeSide, nil, &c) }))
		join = append(join, r.timed("core.join", parent, i, func() { probe.JoinPhase(nil, &c, sink) }))
		r.tr.end(parent)
		r.check("pipeline", i, nil, hashPairs(sink.Pairs), orc.want)
	}
	r.setValue("touch.join_allocs", float64(mallocs))
	// A join lasts 0.5-1.3 s and a handful of spanned/bare pairs cannot
	// resolve anything below 5% on this host, so here the overhead is what
	// recording the traced join's spans (the public call's one, the
	// pipeline's five) costs, over the public call's median.
	wholeMS := float64(whole.median()) / float64(time.Millisecond)
	if wholeMS > 0 {
		r.setValue("bench.trace_overhead_pct", 100*6*spanCost().Seconds()*1000/wholeMS)
	}
	r.setTime("geom.expand_ms", expand)
	r.setTime("core.build_ms", build)
	r.setTime("core.assign_ms", assign)
	r.setTime("core.join_ms", join)
	children := r.median("geom.expand_ms") + r.median("core.assign_ms") + r.median("core.join_ms")
	if fx.idx == nil {
		children += r.median("core.build_ms")
	}
	// What the public call adds on top of the engine: pair
	// materialisation, orientation, probe pooling.
	r.setValue("touch.join_self_ms", wholeMS-children)

	r.setValue("core.comparisons", float64(c.Comparisons))
	r.setValue("core.node_tests", float64(c.NodeTests))
	r.setValue("core.filtered", float64(c.Filtered))
	r.setValue("core.results", float64(c.Results))
	r.setValue("core.replicas", float64(c.Replicas))
	r.setValue("core.memory_bytes", float64(tree.StaticBytes()+probe.MemoryBytes()))
	r.setValue("core.static_bytes", float64(tree.StaticBytes()))
	r.setValue("core.comparisons_per_result", float64(c.Comparisons)/float64(max(c.Results, 1)))

	// STR packing alone, at the leaf group size Build uses.
	group := str.GroupSizeFor(len(fx.a), core.DefaultPartitions)
	r.setTime("str.pack_ms", r.rung("str.pack", n, func(int) { str.PackObjects(fx.a, group) }, nil))

	if runtime.NumCPU() < 2 {
		r.omit("core.join_w2_ms", "cpus=1: not meaningful")
	} else {
		probe.SetWorkers(2)
		expanded := fx.b
		if fx.idx != nil {
			expanded = fx.b.Expand(eps)
		}
		var w2 durations
		for i := 0; i < n; i++ {
			var cw stats.Counters
			sink := &stats.CollectSink{}
			probe.Assign(expanded, nil, &cw)
			d := r.timed("core.join_w2", -1, i, func() { probe.JoinPhase(nil, &cw, sink) })
			if r.check("join w2", i, nil, hashPairs(sink.Pairs), orc.want) {
				w2 = append(w2, d)
			}
		}
		r.setTime("core.join_w2_ms", w2)
	}

	// Reference rungs, one run each: the paper's order-of-magnitude claim
	// stays visible next to TOUCH's own numbers.
	r.setValue("pbsm.join_ms", float64(orc.took)/float64(time.Millisecond))
	r.setValue("pbsm.comparisons", float64(orc.stats.Comparisons))
	r.setValue("pbsm.memory_bytes", float64(orc.stats.MemoryBytes))
	if fx.idx == nil {
		var res *touch.Result
		var err error
		d := r.timed("rtree.join", -1, 0, func() {
			res, err = touch.DistanceJoin(touch.AlgRTree, fx.a, fx.b, eps, &touch.Options{NoPairs: true})
		})
		var got uint64
		if err == nil {
			got = uint64(res.Stats.Results)
		}
		if r.check("rtree join", 0, err, got, uint64(orc.stats.Results)) {
			r.setValue("rtree.join_ms", float64(d)/float64(time.Millisecond))
			r.setValue("rtree.comparisons", float64(res.Stats.Comparisons))
			r.setValue("rtree.memory_bytes", float64(res.Stats.MemoryBytes))
		}
	}
	return nil
}
