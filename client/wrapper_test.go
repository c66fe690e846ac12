package client_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"touch"
	"touch/client"
)

// TestKeptWrappersEqualDo: each typed call kept for the benchmark
// answers exactly what Do or Add with the same request, decoded, does —
// on success, on a server error frame and on a closed connection.
func TestKeptWrappersEqualDo(t *testing.T) {
	addr := startServer(t)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	box := touch.Box{Max: touch.Point{500, 500, 500}}
	pt := touch.Point{100, 200, 300}
	spec := client.JoinSpec{Boxes: []touch.Box{box, {Min: pt, Max: pt}}, Eps: 2}
	upd := client.UpdateSpec{Delete: []touch.ID{1 << 30}} // unknown: changes nothing
	same := func(what string, wrapper, do []any) {
		t.Helper()
		if !reflect.DeepEqual(wrapper, do) {
			t.Errorf("%s: wrapper answered %v, Do %v", what, wrapper, do)
		}
	}
	do := func(req client.Request) *client.Reply {
		t.Helper()
		r, err := c.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	check := func(dataset string) {
		v, ids, err := c.Range(ctx, dataset, box)
		v2, ids2, err2 := do(client.Range(dataset, box)).IDs()
		same("Range "+dataset, []any{v, ids, err}, []any{v2, ids2, err2})

		v, ids, tr, err := c.RangeTraced(ctx, dataset, box)
		r := do(client.Range(dataset, box).Traced())
		v2, ids2, err2 = r.IDs()
		same("RangeTraced "+dataset, []any{v, ids, err, tr != nil}, []any{v2, ids2, err2, r.Trace() != nil})

		v, nbrs, err := c.KNN(ctx, dataset, pt, 5)
		v2, nbrs2, err2 := do(client.KNN(dataset, pt, 5)).Neighbors()
		same("KNN "+dataset, []any{v, nbrs, err}, []any{v2, nbrs2, err2})

		v, pairs, n, err := c.Join(ctx, dataset, spec)
		v2, pairs2, n2, err2 := do(client.Join(dataset, spec)).Join()
		same("Join "+dataset, []any{v, pairs, n, err}, []any{v2, pairs2, n2, err2})

		v, pairs, n, tr, err = c.JoinTraced(ctx, dataset, spec)
		r = do(client.Join(dataset, spec).Traced())
		v2, pairs2, n2, err2 = r.Join()
		same("JoinTraced "+dataset, []any{v, pairs, n, err, tr != nil}, []any{v2, pairs2, n2, err2, r.Trace() != nil})

		res, err := c.Update(ctx, dataset, upd)
		res2, err2 := do(client.Update(dataset, upd)).Update()
		same("Update "+dataset, []any{res, err}, []any{res2, err2})

		b := c.Batch()
		fr, fk := b.Range(dataset, box), b.KNN(dataset, pt, 5)
		gr, gk := b.Add(client.Range(dataset, box)), b.Add(client.KNN(dataset, pt, 5))
		if err := b.Send(); err != nil {
			t.Fatal(err)
		}
		v, ids, err = fr.Get(ctx)
		r, err2 = gr.Get(ctx)
		if err2 != nil {
			t.Fatal(err2)
		}
		v2, ids2, err2 = r.IDs()
		same("Batch.Range "+dataset, []any{v, ids, err}, []any{v2, ids2, err2})
		v, nbrs, err = fk.Get(ctx)
		if r, err2 = gk.Get(ctx); err2 != nil {
			t.Fatal(err2)
		}
		v2, nbrs2, err2 = r.Neighbors()
		same("Batch.KNN "+dataset, []any{v, nbrs, err}, []any{v2, nbrs2, err2})
	}
	check("d")
	check("ghost") // every answer an unknown_dataset error frame

	c.Close()
	_, _, err = c.Range(ctx, "d", box)
	_, err2 := c.Do(ctx, client.Range("d", box))
	if !errors.Is(err, client.ErrClosed) || !errors.Is(err2, client.ErrClosed) {
		t.Errorf("on a closed connection: Range %v, Do %v, want ErrClosed from both", err, err2)
	}
	_, _, err = c.Batch().Range("d", box).Get(ctx)
	if !errors.Is(err, client.ErrClosed) {
		t.Errorf("on a closed connection: Batch.Range %v, want ErrClosed", err)
	}
}
