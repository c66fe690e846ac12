package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"touch"
	"touch/client"
	"touch/internal/router"
	"touch/internal/server"
)

// stack is the system under test of the serving workloads, hosted in the
// benchmark process on real loopback TCP sockets: one server.Server with
// an HTTP and a wire listener and, for serve_read, two wire replicas
// behind one router.Router (R=2) with its own wire front.
type stack struct {
	srv *server.Server

	hs       *http.Server
	httpc    *http.Client
	queryURL string

	replicas []*server.Server
	rt       *router.Router

	// Two connections to each wire endpoint: the closed loop never has
	// more than nproc (2) clients active.
	wire   [2]*client.Conn
	routed [2]*client.Conn
}

var bg = context.Background()

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// newStack loads ds everywhere, opens the listeners, dials the clients
// and warms every path once (probe pools, keep-alive connections, router
// pools), so the first measured op finds the system in steady state.
func newStack(ds touch.Dataset, withRouter bool, warm func(*stack) error) (*stack, error) {
	st := &stack{}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()

	st.srv = server.New(server.Config{})
	st.srv.Load(dataset, ds, touch.TOUCHConfig{})
	hln, err := listen()
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.srv}
	go st.hs.Serve(hln)
	st.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	st.queryURL = "http://" + hln.Addr().String() + "/v1/datasets/" + dataset + "/query"

	wln, err := listen()
	if err != nil {
		return nil, err
	}
	go st.srv.ServeWire(wln)
	for i := range st.wire {
		if st.wire[i], err = client.Dial(bg, wln.Addr().String()); err != nil {
			return nil, err
		}
	}

	if withRouter {
		var addrs []string
		for _, id := range []string{"replica-a", "replica-b"} {
			rs := server.New(server.Config{NodeID: id})
			rs.Load(dataset, ds, touch.TOUCHConfig{})
			rln, err := listen()
			if err != nil {
				return nil, err
			}
			go rs.ServeWire(rln)
			st.replicas = append(st.replicas, rs)
			addrs = append(addrs, rln.Addr().String())
		}
		if st.rt, err = router.New(router.Config{Backends: addrs, Replication: 2}); err != nil {
			return nil, err
		}
		st.rt.Start()
		fln, err := listen()
		if err != nil {
			return nil, err
		}
		go st.rt.ServeWire(fln)
		for i := range st.routed {
			if st.routed[i], err = client.Dial(bg, fln.Addr().String()); err != nil {
				return nil, err
			}
		}
	}
	if err := warm(st); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// close stops every listener, connection and background goroutine of
// the stack and waits for them.
func (st *stack) close() {
	if st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	for _, c := range st.wire {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range st.routed {
		if c != nil {
			c.Close()
		}
	}
	if st.rt != nil {
		st.rt.ShutdownWire(ctx)
		st.rt.Close()
	}
	for _, rs := range st.replicas {
		rs.ShutdownWire(ctx)
	}
	if st.httpc != nil {
		st.httpc.CloseIdleConnections()
	}
	if st.hs != nil {
		st.hs.Shutdown(ctx)
	}
	if st.srv != nil {
		st.srv.ShutdownWire(ctx)
	}
}

// queryBodies pre-encodes the HTTP/JSON request of every shape; a client
// of the HTTP API pays the encoding once per distinct query too.
type queryBodies struct{ ranges, knns [][]byte }

func newQueryBodies(sh *shapes) *queryBodies {
	qb := &queryBodies{}
	for i := range sh.boxes {
		b := sh.boxes[i]
		body, _ := json.Marshal(map[string]any{
			"type": "range",
			"box":  []float64{b.Min[0], b.Min[1], b.Min[2], b.Max[0], b.Max[1], b.Max[2]},
		})
		qb.ranges = append(qb.ranges, body)
		body, _ = json.Marshal(map[string]any{"type": "knn", "point": sh.points[i][:], "k": knnK})
		qb.knns = append(qb.knns, body)
	}
	return qb
}

// httpAnswer is the part of a query response the checker reads.
type httpAnswer struct {
	IDs       []touch.ID `json:"ids"`
	Neighbors []struct {
		ID       touch.ID `json:"id"`
		Distance float64  `json:"distance"`
	} `json:"neighbors"`
}

// hash decodes a response body and hashes the answer the way hashIDs
// and hashNeighbors do.
func (a *httpAnswer) hash(body []byte, knn bool) (uint64, error) {
	a.IDs, a.Neighbors = a.IDs[:0], a.Neighbors[:0]
	if err := json.Unmarshal(body, a); err != nil {
		return 0, err
	}
	if !knn {
		return hashIDs(a.IDs), nil
	}
	nbrs := make([]touch.Neighbor, len(a.Neighbors))
	for i, n := range a.Neighbors {
		nbrs[i] = touch.Neighbor{ID: n.ID, Distance: n.Distance}
	}
	return hashNeighbors(nbrs), nil
}

// httpClient is one closed-loop HTTP caller with its reusable buffers.
type httpClient struct {
	st  *stack
	buf bytes.Buffer
	ans httpAnswer
}

// post sends one query and reads the whole response; the returned time
// covers exactly that. A status other than 200 — a refusal included —
// is an error. The body stays valid until the next post.
func (c *httpClient) post(body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.st.httpc.Post(c.st.queryURL, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("http status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), d, nil
}

// query posts shape i (a kNN when knn) and returns the answer's hash.
func (c *httpClient) query(qb *queryBodies, i int, knn bool) (uint64, time.Duration, error) {
	body := qb.ranges[i]
	if knn {
		body = qb.knns[i]
	}
	resp, d, err := c.post(body)
	if err != nil {
		return 0, 0, err
	}
	h, err := c.ans.hash(resp, knn)
	return h, d, err
}

// querier is the unary query surface client.Conn and router.Router
// share, so one op function prices both.
type querier interface {
	Range(ctx context.Context, dataset string, b touch.Box) (int64, []touch.ID, error)
	KNN(ctx context.Context, dataset string, pt touch.Point, k int) (int64, []touch.Neighbor, error)
}

// wireQuery runs shape i against q and returns the answer's hash and
// the call's wall time (the hashing is not part of it).
func wireQuery(q querier, sh *shapes, i int, knn bool) (uint64, time.Duration, error) {
	start := time.Now()
	if knn {
		_, nbrs, err := q.KNN(bg, dataset, sh.points[i], knnK)
		d := time.Since(start)
		return hashNeighbors(nbrs), d, err
	}
	_, ids, err := q.Range(bg, dataset, sh.boxes[i])
	d := time.Since(start)
	return hashIDs(ids), d, err
}
