package geom

// The single-probe scans' box tests, and the local join's in a probe
// object's first grid cell, written so that no branch the predictor cannot
// learn decides an object; a missed guess costs more than the test. A
// range query's leaf scan keeps a few objects in many, at no position one
// can foresee, so it writes every object's ID past its answer and
// advances by the object's meet bit; Meeting does the same with a cell's
// candidates. A kNN search's early-exit loop over the gaps left after
// one, two or three dimensions, so it sums all three and compares once.
// Its clamps stay jumps on a gap's sign, which the objects of one block,
// neighbours in space, mostly share: a bit mask in their place measured
// slower.

// AppendMeeting appends to ids, in order, the IDs of the objects whose
// boxes meet q (Box.Meets): the objects are two columns of one length,
// object i's box boxes[i] and its ID of[i]. An object is kept unless one
// of the six "lies beyond" tests holds, so a NaN corner, for which none
// does, meets everything here as it does there. Every object's ID is
// written into the slot past the answer, which the answer takes only if
// the object is kept; while ids is full, an object is tested first and
// ids grows only for one that is kept, as a loop of appends would grow
// it.
func AppendMeeting(ids []ID, boxes []Box, of []ID, q *Box) []ID {
	// q's corners, held in registers: a write to ids could alias *q.
	x0, y0, z0, x1, y1, z1 := q.Min[0], q.Min[1], q.Min[2], q.Max[0], q.Max[1], q.Max[2]
	n, all := len(ids), ids[:cap(ids)]
	of = of[:len(boxes)]
	for i := range boxes {
		b := &boxes[i]
		keep := 1 ^ (bit(b.Min[0] > x1) | bit(x0 > b.Max[0]) |
			bit(b.Min[1] > y1) | bit(y0 > b.Max[1]) |
			bit(b.Min[2] > z1) | bit(z0 > b.Max[2]))
		if n == len(all) {
			if keep == 0 {
				continue
			}
			all = append(all, 0)
			all = all[:cap(all)]
		}
		all[n] = of[i]
		n += keep
	}
	return all[:n]
}

// Meeting writes to hits, in order, the entries of idx whose objects
// meet q (Box.Meets) and returns how many it wrote: entry i names the
// object objs[i]. hits is at least as long as idx and may be idx itself,
// since every entry is written into the slot past the answer, at or
// before its own, which the answer takes only if the object meets q.
func Meeting(hits, idx []int32, objs []Object, q *Box) int {
	x0, y0, z0, x1, y1, z1 := q.Min[0], q.Min[1], q.Min[2], q.Max[0], q.Max[1], q.Max[2]
	hits = hits[:len(idx)]
	n := 0
	for _, i := range idx {
		b := &objs[i].Box
		hits[n] = i
		n += 1 ^ (bit(b.Min[0] > x1) | bit(x0 > b.Max[0]) |
			bit(b.Min[1] > y1) | bit(y0 > b.Max[1]) |
			bit(b.Min[2] > z1) | bit(z0 > b.Max[2]))
	}
	return n
}

// bit is c as 0 or 1; the compiler turns it into a flag read, no jump.
func bit(c bool) int {
	if c {
		return 1
	}
	return 0
}

// NextWithin returns the index of the first box of boxes from i on whose
// squared distance from p (Box.PointDistance before its root, bit for
// bit) is at most limit, and that square, or len(boxes) when there is
// none.
// All three gaps are summed and the sum compared once: a partial sum only
// grows, so the sum passes limit exactly when a loop stopping at the first
// partial sum past it would have stopped. A gap that is not positive, NaN
// included, adds +0 here where PointDistance skips it, and each product is
// rounded before it is summed, in PointDistance's order, so no fused
// multiply-add can make the two differ.
func NextWithin(boxes []Box, i int, p *Point, limit float64) (int, float64) {
	x, y, z := p[0], p[1], p[2]
	for ; i < len(boxes); i++ {
		b := &boxes[i]
		sum := gap2(b.Min[0]-x, x-b.Max[0]) + gap2(b.Min[1]-y, y-b.Max[1]) + gap2(b.Min[2]-z, z-b.Max[2])
		if !(sum > limit) {
			return i, sum
		}
	}
	return len(boxes), 0
}

// gap2 is the square of the gap whose two sides are below and above, 0
// when it is not positive.
func gap2(below, above float64) float64 {
	g := max(below, above)
	if !(g > 0) {
		g = 0
	}
	return float64(g * g)
}
