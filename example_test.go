package touch_test

import (
	"context"
	"errors"
	"fmt"

	"touch"
)

// A tiny hand-laid dataset keeps the example outputs stable: three unit
// boxes spaced along the x axis.
func exampleDataset() touch.Dataset {
	return touch.Dataset{
		{ID: 0, Box: touch.NewBox(touch.Point{0, 0, 0}, touch.Point{1, 1, 1})},
		{ID: 1, Box: touch.NewBox(touch.Point{4, 0, 0}, touch.Point{5, 1, 1})},
		{ID: 2, Box: touch.NewBox(touch.Point{8, 0, 0}, touch.Point{9, 1, 1})},
	}
}

// RangeQuery returns the IDs of all indexed objects intersecting a
// box, sorted ascending — touching boundaries count.
func ExampleIndex_RangeQuery() {
	idx := touch.BuildIndex(exampleDataset(), touch.TOUCHConfig{})

	ids, err := idx.RangeQuery(touch.NewBox(touch.Point{0.5, 0, 0}, touch.Point{4.5, 1, 1}))
	if err != nil {
		panic(err)
	}
	fmt.Println(ids)
	// Output: [0 1]
}

// sinkFunc adapts a function to touch.Sink.
type sinkFunc func(a, b touch.ID)

func (f sinkFunc) Emit(a, b touch.ID) { f(a, b) }

// A join streams its results through Options.Sink: pairs arrive as the
// engine finds them, so nothing is materialized, and cancelling the
// context — from inside the sink too — or Options.Limit bounds the work.
// Here the sink stops the join after two pairs of the three it would
// produce; the engine notices at its next checkpoint, so the sink drops
// whatever it still finds until then.
func ExampleIndex_JoinCtx() {
	idx := touch.BuildIndex(exampleDataset(), touch.TOUCHConfig{})
	probe := touch.Dataset{
		{ID: 100, Box: touch.NewBox(touch.Point{0, 0, 0}, touch.Point{9, 1, 1})},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	sink := sinkFunc(func(a, b touch.ID) {
		if ctx.Err() != nil {
			return
		}
		fmt.Printf("indexed %d overlaps probe %d\n", a, b)
		if seen++; seen == 2 {
			cancel()
		}
	})
	if _, err := idx.JoinCtx(ctx, probe, &touch.Options{Sink: sink}); err != nil && !errors.Is(err, touch.ErrJoinCanceled) {
		panic(err)
	}
	// Output:
	// indexed 0 overlaps probe 100
	// indexed 1 overlaps probe 100
}

// KNN returns the k nearest objects by point-to-MBR distance, ordered
// by (Distance, ID); equal distances resolve to the smaller ID.
func ExampleIndex_KNN() {
	idx := touch.BuildIndex(exampleDataset(), touch.TOUCHConfig{})

	nbrs, err := idx.KNN(touch.Point{5.5, 0.5, 0.5}, 2)
	if err != nil {
		panic(err)
	}
	for _, nb := range nbrs {
		fmt.Printf("object %d at distance %g\n", nb.ID, nb.Distance)
	}
	// Output:
	// object 1 at distance 0.5
	// object 2 at distance 2.5
}
