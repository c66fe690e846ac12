package client_test

import (
	"context"
	"testing"

	"touch"
	"touch/client"
)

// raceEnabled is set by race_test.go under the race detector, whose
// bookkeeping allocates and makes allocation counts mean nothing.
var raceEnabled bool

// TestClientAllocBudget holds a request's round trip to what it cost
// before requests were values. The counts are of the whole process, the
// in-process server's work included, and the box matches no object, so
// no answer carries a result to decode: what is left is the request
// path — encoding, the pending call, the frames — on both ends. A warm
// Batch round of 64 range requests (queue, Send, and every Get) makes at
// most 193 allocations, a unary range at most 7.
func TestClientAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	addr := startServer(t)
	ctx := context.Background()
	c, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	empty := touch.Box{}
	decode := func(r *client.Reply, err error) {
		if err == nil {
			var ids []touch.ID
			_, ids, err = r.IDs()
			if err == nil && len(ids) != 0 {
				t.Fatalf("the empty box matched %d objects", len(ids))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	b := c.Batch()
	futs := make([]client.ReplyFuture, 64)
	round := func() {
		for i := range futs {
			futs[i] = b.Add(client.Range("d", empty))
		}
		if err := b.Send(); err != nil {
			t.Fatal(err)
		}
		for _, f := range futs {
			decode(f.Get(ctx))
		}
	}
	round() // warm the batch's buffers
	if n := testing.AllocsPerRun(50, round); n > 193 {
		t.Errorf("a Batch round of %d range requests made %v allocations, want at most 193", len(futs), n)
	}

	unary := func() { decode(c.Do(ctx, client.Range("d", empty))) }
	if n := testing.AllocsPerRun(200, unary); n > 7 {
		t.Errorf("a unary range made %v allocations, want at most 7", n)
	}
}
