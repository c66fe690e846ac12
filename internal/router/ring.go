// Package router is touchrouter's engine: a stateless routing tier that
// owns a consistent-hash ring over dataset names and fans every request
// out to a set of touchserved replica backends over the binary wire
// protocol (touch/client).
//
// Placement is deterministic: a dataset name hashes onto the ring and is
// owned by the first R distinct backends clockwise from its point —
// every router instance with the same backend list, virtual-node count
// and replication factor computes the same owners, so a fleet of
// routers needs no coordination. Idempotent reads — one or a coalesced
// burst alike — try the owners in ring order (healthy ones first) and
// fail over on connection-level errors within the caller's deadline; a
// caller's own hang-up or spent deadline ejects no owner. Updates go to
// the primary owner only — a blind retry elsewhere could double-apply a
// batch. Catalog listings scatter to every backend and merge with
// per-backend provenance.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend when Config does
// not choose one: enough that ownership splits within a few percent of
// evenly, cheap enough that ring construction stays microseconds.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over backend names. Each
// backend contributes vnodes points (FNV-64a of "name#i"); a key is
// owned by the first distinct backends clockwise from its own hash.
// Adding or removing one backend moves only the keys whose arcs it
// gained or lost — about 1/N of them — which is the property that makes
// backend churn survivable: everything else keeps its primary, so a
// fleet-wide cache of placement stays mostly warm.
type Ring struct {
	nodes  []string // distinct backend names, sorted
	hashes []uint64 // ring points, sorted
	owner  []int    // owner[i] indexes nodes for hashes[i]
}

// NewRing builds a ring of vnodes points per node (DefaultVNodes when
// vnodes <= 0). Duplicate node names collapse to one. The node order
// given does not matter — placement depends only on the set.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	distinct := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	sort.Strings(distinct)
	r := &Ring{
		nodes:  distinct,
		hashes: make([]uint64, 0, len(distinct)*vnodes),
		owner:  make([]int, 0, len(distinct)*vnodes),
	}
	type point struct {
		hash uint64
		node int
	}
	points := make([]point, 0, len(distinct)*vnodes)
	for ni, n := range distinct {
		for i := 0; i < vnodes; i++ {
			points = append(points, point{hashKey(n + "#" + strconv.Itoa(i)), ni})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (vanishingly rare) break on node order so placement
		// stays deterministic regardless of input order.
		return points[i].node < points[j].node
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.hash)
		r.owner = append(r.owner, p.node)
	}
	return r
}

// hashKey is FNV-64a with a 64-bit avalanche finalizer (MurmurHash3's
// fmix64). Both halves matter: FNV is stable across processes,
// architectures and Go releases — the property consistent placement
// depends on (Go's built-in map hash is seeded per process and useless
// here) — but raw FNV-1a barely diffuses trailing bytes, so sequential
// names like "dataset-000".."dataset-999" land in one narrow hash
// window and pile onto a single arc. The finalizer spreads them over
// the whole ring.
func hashKey(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Nodes returns the distinct backend names on the ring, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Owners returns the first n distinct backends clockwise from key's
// ring point, primary first. Fewer than n backends on the ring means a
// shorter answer; an empty ring means nil.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.nodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	owners := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.hashes) && len(owners) < n; i++ {
		ni := r.owner[(start+i)%len(r.hashes)]
		if !taken[ni] {
			taken[ni] = true
			owners = append(owners, r.nodes[ni])
		}
	}
	return owners
}
