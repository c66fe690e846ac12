// Package client is the Go client for touchserved's binary wire
// protocol (internal/wire): length-prefixed frames over a persistent
// TCP connection, with client-side pipelining.
//
// A Conn is safe for concurrent use and multiplexes every request over
// one connection: each request carries a tag, responses are matched by
// tag, and in-order execution on the server means no response ever
// waits behind bookkeeping here. Two usage patterns:
//
//   - Unary calls (Range, Point, KNN, Join, JoinCount) write one frame,
//     flush, and wait. Concurrent goroutines sharing a Conn pipeline
//     naturally — nobody waits for anyone else's response.
//   - A Batch queues many requests and sends them with one write and
//     one flush; each queued request returns a future whose Get blocks
//     until its response arrives. This is the deep-pipelining mode that
//     amortizes the round trip and the syscalls, and is where the
//     protocol's throughput over HTTP/JSON comes from.
//
// Canceling a request's context sends a cancel frame for its tag and
// then waits for the guaranteed terminal response — the server frees
// the request's admission slot on abort, and the connection stays
// usable. A connection-level error fails every outstanding request
// with the same error and poisons the Conn; Pool replaces poisoned
// connections on the next checkout.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"touch"
	"touch/internal/trace"
	"touch/internal/wire"
)

// ErrClosed is returned for requests on a closed connection or pool.
var ErrClosed = errors.New("client: connection closed")

// ServerError is a structured error frame from the server — the binary
// twin of the HTTP JSON error body. Code holds the machine-readable
// error vocabulary shared with HTTP ("unknown_dataset", "timeout",
// "overload", ...).
type ServerError struct {
	Code    string
	Message string
}

func (e *ServerError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Message) }

// call is one in-flight request: the reader goroutine fills it and
// closes done exactly once.
type call struct {
	done     chan struct{}
	op       byte
	payload  []byte
	pairs    []touch.Pair // accumulated OpPairs batches (joins)
	pairsErr error
	trace    *wire.TraceResp // OpTrace trailer, when the request asked for one
	traceErr error
	err      error // connection-level failure
}

// Conn is one binary-protocol connection. Safe for concurrent use.
type Conn struct {
	nc net.Conn
	w  *wire.Writer

	// serverInfo is the free-text build identification the server sent in
	// its hello frame ("touchserved/v1.2.3 rev/abc... go1.x"); empty for
	// servers predating the info field.
	serverInfo string

	// wmu serializes frame writes and flushes.
	wmu sync.Mutex

	// mu guards the tag space and the pending-call table.
	mu      sync.Mutex
	pending map[uint32]*call
	nextTag uint32
	err     error // sticky; set once by fail
}

// ServerInfo returns the server's hello-frame build identification,
// empty when the server did not send one.
func (c *Conn) ServerInfo() string { return c.serverInfo }

// ServerNode returns the server's stable instance name — the "node/<id>"
// token of its hello info (touchserved -node-id) — or "" when the server
// did not advertise one. Routing tiers key logs and per-backend metrics
// on it.
func (c *Conn) ServerNode() string {
	for _, f := range strings.Fields(c.serverInfo) {
		if id, ok := strings.CutPrefix(f, "node/"); ok {
			return id
		}
	}
	return ""
}

// Dial connects and performs the protocol handshake. The context bounds
// dialing and the handshake only; it does not govern the connection's
// lifetime.
func Dial(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetDeadline(dl)
	}
	c := &Conn{nc: nc, w: wire.NewWriter(nc), pending: make(map[uint32]*call)}
	r := wire.NewReader(nc, 0)
	if err := c.w.WriteHello("touchclient/go"); err == nil {
		err = c.w.Flush()
	} else {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	v, info, err := r.ReadHello()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.serverInfo = info
	if v != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("client: server speaks protocol version %d, this client speaks %d", v, wire.Version)
	}
	nc.SetDeadline(time.Time{})
	go c.readLoop(r)
	return c, nil
}

// Close tears the connection down; every outstanding request fails
// with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Err returns the connection's sticky error, nil while it is usable.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail poisons the connection: the first error sticks, every pending
// call completes with it, and the socket closes (which also stops the
// reader).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.pending
	c.pending = make(map[uint32]*call)
	c.mu.Unlock()
	c.nc.Close()
	for _, cl := range calls {
		cl.err = err
		close(cl.done)
	}
}

// readLoop is the connection's single reader: it matches every response
// frame to its pending call by tag. Non-terminal frames — OpPairs
// batches and the OpTrace trailer — accumulate on the call; any other
// opcode completes it.
func (c *Conn) readLoop(r *wire.Reader) {
	for {
		op, tag, payload, err := r.ReadFrame()
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		nonTerminal := op == wire.OpPairs || op == wire.OpTrace
		c.mu.Lock()
		cl := c.pending[tag]
		if !nonTerminal {
			delete(c.pending, tag)
		}
		c.mu.Unlock()
		if cl == nil {
			// A response for a tag nobody waits on: the server answered
			// something this client never sent, or answered twice.
			c.fail(fmt.Errorf("client: response for unknown tag %d (opcode %#02x)", tag, op))
			return
		}
		switch op {
		case wire.OpPairs:
			if cl.pairsErr == nil {
				cl.pairs, cl.pairsErr = wire.DecodePairsResp(payload, cl.pairs)
			}
			continue
		case wire.OpTrace:
			tr, err := wire.DecodeTraceResp(payload)
			if err != nil {
				cl.traceErr = err
			} else {
				cl.trace = &tr
			}
			continue
		}
		cl.op = op
		cl.payload = append([]byte(nil), payload...)
		close(cl.done)
	}
}

// register allocates a tag and its pending call. Tags are monotonic per
// connection (wrapping at 2³²), never reused while in flight, so a
// cancel frame racing its own response cannot poison a later request.
func (c *Conn) register() (uint32, *call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextTag++
	cl := &call{done: make(chan struct{})}
	c.pending[c.nextTag] = cl
	return c.nextTag, cl, nil
}

func (c *Conn) sendCancel(tag uint32) {
	c.wmu.Lock()
	if c.w.WriteFrame(wire.OpCancel, tag, nil) == nil {
		_ = c.w.Flush()
	}
	c.wmu.Unlock()
}

// wait blocks until the call completes. A context cancellation sends a
// cancel frame and keeps waiting for the guaranteed terminal response
// (or the connection's death) — then reports the context's error.
func (c *Conn) wait(ctx context.Context, tag uint32, cl *call) (*call, error) {
	select {
	case <-cl.done:
		return cl, cl.err
	case <-ctx.Done():
		c.sendCancel(tag)
		<-cl.done
		if cl.err != nil {
			return cl, cl.err
		}
		return cl, ctx.Err()
	}
}

// roundTrip is the unary path: one frame out, flushed, one terminal
// response waited for.
func (c *Conn) roundTrip(ctx context.Context, op byte, payload []byte) (*call, error) {
	tag, cl, err := c.register()
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	if err = c.w.WriteFrame(op, tag, payload); err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("client: write: %w", err))
		return nil, err
	}
	return c.wait(ctx, tag, cl)
}

// --- response decoding ----------------------------------------------------

func respError(cl *call) error {
	if cl.op != wire.OpError {
		return nil
	}
	code, msg, err := wire.DecodeErrorResp(cl.payload)
	if err != nil {
		return fmt.Errorf("client: bad error frame: %w", err)
	}
	return &ServerError{Code: code, Message: msg}
}

func decodeIDs(cl *call) (int64, []touch.ID, error) {
	if err := respError(cl); err != nil {
		return 0, nil, err
	}
	if cl.op != wire.OpIDs {
		return 0, nil, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	return wire.DecodeIDsResp(cl.payload)
}

func decodeNeighbors(cl *call) (int64, []touch.Neighbor, error) {
	if err := respError(cl); err != nil {
		return 0, nil, err
	}
	if cl.op != wire.OpNeighbors {
		return 0, nil, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	return wire.DecodeNeighborsResp(cl.payload)
}

func decodeCount(cl *call) (int64, int64, error) {
	if err := respError(cl); err != nil {
		return 0, 0, err
	}
	if cl.op != wire.OpCount {
		return 0, 0, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	return wire.DecodeCountResp(cl.payload)
}

// decodeJoin finishes a streaming join: pairs were accumulated by the
// reader, OpJoinDone carries the version and total. Pairs are sorted
// into the canonical (indexed, probe) ascending order the HTTP path
// uses, so the two transports answer byte-identically.
func decodeJoin(cl *call) (version int64, pairs []touch.Pair, count int64, err error) {
	if err := respError(cl); err != nil {
		return 0, nil, 0, err
	}
	if cl.op != wire.OpJoinDone {
		return 0, nil, 0, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	if cl.pairsErr != nil {
		return 0, nil, 0, fmt.Errorf("client: bad pairs frame: %w", cl.pairsErr)
	}
	version, count, err = wire.DecodeJoinDoneResp(cl.payload)
	if err != nil {
		return 0, nil, 0, err
	}
	if count != int64(len(cl.pairs)) {
		return 0, nil, 0, fmt.Errorf("client: join stream carried %d pairs but the trailer counts %d", len(cl.pairs), count)
	}
	pairs = cl.pairs
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return version, pairs, count, nil
}

func decodeUpdate(cl *call) (UpdateResult, error) {
	if err := respError(cl); err != nil {
		return UpdateResult{}, err
	}
	if cl.op != wire.OpUpdateDone {
		return UpdateResult{}, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	r, err := wire.DecodeUpdateResp(cl.payload)
	if err != nil {
		return UpdateResult{}, err
	}
	res := UpdateResult{
		Version: r.Version, Deleted: r.Deleted,
		DeltaInserts: r.DeltaInserts, DeltaTombstones: r.DeltaTombstones,
	}
	if r.FirstID >= 0 {
		res.InsertedIDs = make([]touch.ID, r.Inserted)
		for i := range res.InsertedIDs {
			res.InsertedIDs[i] = touch.ID(r.FirstID) + touch.ID(i)
		}
	}
	return res, nil
}

// --- tracing --------------------------------------------------------------

// Trace is the per-request engine trace the server returns when a
// request asks for one (the wire twin of the HTTP X-Touch-Trace
// response field): the server-assigned request ID, wall time per engine
// phase, and the engine's work counters for exactly this request.
type Trace struct {
	// RequestID is the server-assigned identifier, usable to correlate
	// with server logs and the slow-query log.
	RequestID string
	// PhaseNs holds nanoseconds spent per engine phase, keyed by phase
	// name ("admission", "decode", "join", ...); phases the request never
	// entered are absent.
	PhaseNs map[string]int64

	Comparisons int64
	NodeTests   int64
	Filtered    int64
	Results     int64
	Replicas    int64
	// Cancel names why the engine stopped early, "" for a complete run.
	Cancel string
}

// callTrace converts an accumulated OpTrace trailer. A missing or
// malformed trailer yields nil — tracing is best-effort diagnostics and
// never fails the request it rides on.
func callTrace(cl *call) *Trace {
	if cl.trace == nil || cl.traceErr != nil {
		return nil
	}
	t := &Trace{
		RequestID:   cl.trace.RequestID,
		PhaseNs:     make(map[string]int64),
		Comparisons: cl.trace.Comparisons,
		NodeTests:   cl.trace.NodeTests,
		Filtered:    cl.trace.Filtered,
		Results:     cl.trace.Results,
		Replicas:    cl.trace.Replicas,
		Cancel:      trace.CancelName(int32(cl.trace.Cancel)),
	}
	for i, ns := range cl.trace.PhaseNs {
		if ns > 0 && i < int(trace.NumPhases) {
			t.PhaseNs[trace.Phase(i).Name()] = ns
		}
	}
	return t
}

// --- unary API ------------------------------------------------------------

// Range returns the IDs of indexed objects intersecting the box, and
// the dataset version that answered.
func (c *Conn) Range(ctx context.Context, dataset string, b touch.Box) (version int64, ids []touch.ID, err error) {
	cl, err := c.roundTrip(ctx, wire.OpRange, wire.AppendRangeReq(nil, dataset, b))
	if err != nil {
		return 0, nil, err
	}
	return decodeIDs(cl)
}

// RangeTraced is Range with per-request tracing: the server returns its
// engine trace alongside the result.
func (c *Conn) RangeTraced(ctx context.Context, dataset string, b touch.Box) (version int64, ids []touch.ID, tr *Trace, err error) {
	cl, err := c.roundTrip(ctx, wire.OpRange, wire.AppendRangeReqFlags(nil, dataset, b, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, ids, err = decodeIDs(cl)
	return version, ids, callTrace(cl), err
}

// Point returns the IDs of indexed objects containing the point.
func (c *Conn) Point(ctx context.Context, dataset string, pt touch.Point) (version int64, ids []touch.ID, err error) {
	cl, err := c.roundTrip(ctx, wire.OpPoint, wire.AppendPointReq(nil, dataset, pt))
	if err != nil {
		return 0, nil, err
	}
	return decodeIDs(cl)
}

// PointTraced is Point with per-request tracing.
func (c *Conn) PointTraced(ctx context.Context, dataset string, pt touch.Point) (version int64, ids []touch.ID, tr *Trace, err error) {
	cl, err := c.roundTrip(ctx, wire.OpPoint, wire.AppendPointReqFlags(nil, dataset, pt, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, ids, err = decodeIDs(cl)
	return version, ids, callTrace(cl), err
}

// KNN returns the k nearest indexed objects to the point.
func (c *Conn) KNN(ctx context.Context, dataset string, pt touch.Point, k int) (version int64, nbrs []touch.Neighbor, err error) {
	cl, err := c.roundTrip(ctx, wire.OpKNN, wire.AppendKNNReq(nil, dataset, pt, k))
	if err != nil {
		return 0, nil, err
	}
	return decodeNeighbors(cl)
}

// KNNTraced is KNN with per-request tracing.
func (c *Conn) KNNTraced(ctx context.Context, dataset string, pt touch.Point, k int) (version int64, nbrs []touch.Neighbor, tr *Trace, err error) {
	cl, err := c.roundTrip(ctx, wire.OpKNN, wire.AppendKNNReqFlags(nil, dataset, pt, k, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, nbrs, err = decodeNeighbors(cl)
	return version, nbrs, callTrace(cl), err
}

// JoinSpec selects a join's probe side and parameters. Exactly one of
// Probe (a loaded dataset's name) or Boxes (an inline probe dataset)
// must be set; Eps 0 is the plain intersection join.
type JoinSpec struct {
	Probe   string
	Boxes   []touch.Box
	Eps     float64
	Workers int
}

// JoinCount runs a count-only join.
func (c *Conn) JoinCount(ctx context.Context, dataset string, spec JoinSpec) (version, count int64, err error) {
	cl, err := c.roundTrip(ctx, wire.OpJoin, wire.AppendJoinReq(nil, dataset, spec.Eps, spec.Workers, true, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, 0, err
	}
	return decodeCount(cl)
}

// JoinCountTraced is JoinCount with per-request tracing.
func (c *Conn) JoinCountTraced(ctx context.Context, dataset string, spec JoinSpec) (version, count int64, tr *Trace, err error) {
	cl, err := c.roundTrip(ctx, wire.OpJoin,
		wire.AppendJoinReqFlags(nil, dataset, spec.Eps, spec.Workers, wire.FlagCountOnly|wire.FlagTrace, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, 0, nil, err
	}
	version, count, err = decodeCount(cl)
	return version, count, callTrace(cl), err
}

// UpdateSpec is one incremental-update batch against a loaded dataset.
// Deletes apply before inserts, so a batch can replace objects without
// tombstoning its own inserts; unknown or already-deleted IDs are
// skipped silently.
type UpdateSpec struct {
	Insert []touch.Box
	Delete []touch.ID
}

// UpdateResult describes an applied update batch.
type UpdateResult struct {
	// Version is the base version the update was applied against.
	Version int64
	// InsertedIDs are the server-assigned IDs of the inserted objects,
	// consecutive and ascending; empty when the batch inserted nothing.
	InsertedIDs []touch.ID
	// Deleted counts live objects actually tombstoned.
	Deleted int
	// DeltaInserts and DeltaTombstones report the dataset's pending
	// (not yet compacted) update counts after this batch.
	DeltaInserts    int
	DeltaTombstones int
}

// Update applies one batch of incremental inserts and deletes — the
// wire twin of PATCH /v1/datasets/{name}. The update is visible to
// every later query, on any connection, before Update returns.
func (c *Conn) Update(ctx context.Context, dataset string, spec UpdateSpec) (UpdateResult, error) {
	cl, err := c.roundTrip(ctx, wire.OpUpdate, wire.AppendUpdateReq(nil, dataset, spec.Delete, spec.Insert))
	if err != nil {
		return UpdateResult{}, err
	}
	return decodeUpdate(cl)
}

// DatasetInfo is one row of a wire catalog listing — the wire twin of
// GET /v1/datasets, carrying the fields a routing tier needs to merge
// listings across replicas.
type DatasetInfo = wire.CatalogEntry

// Datasets lists the server's catalog, sorted by name.
func (c *Conn) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	cl, err := c.roundTrip(ctx, wire.OpCatalog, nil)
	if err != nil {
		return nil, err
	}
	if err := respError(cl); err != nil {
		return nil, err
	}
	if cl.op != wire.OpCatalogResp {
		return nil, fmt.Errorf("client: unexpected response opcode %#02x", cl.op)
	}
	return wire.DecodeCatalogResp(cl.payload)
}

// Join runs a join and materializes its pairs, sorted canonically.
// Pairs stream from the server in batches, so — like the HTTP NDJSON
// mode, and unlike buffered HTTP joins — there is no server-side
// MaxJoinPairs cap; the cap here is this client's memory.
func (c *Conn) Join(ctx context.Context, dataset string, spec JoinSpec) (version int64, pairs []touch.Pair, count int64, err error) {
	cl, err := c.roundTrip(ctx, wire.OpJoin, wire.AppendJoinReq(nil, dataset, spec.Eps, spec.Workers, false, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, nil, 0, err
	}
	return decodeJoin(cl)
}

// JoinTraced is Join with per-request tracing.
func (c *Conn) JoinTraced(ctx context.Context, dataset string, spec JoinSpec) (version int64, pairs []touch.Pair, count int64, tr *Trace, err error) {
	cl, err := c.roundTrip(ctx, wire.OpJoin,
		wire.AppendJoinReqFlags(nil, dataset, spec.Eps, spec.Workers, wire.FlagTrace, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, nil, 0, nil, err
	}
	version, pairs, count, err = decodeJoin(cl)
	return version, pairs, count, callTrace(cl), err
}
