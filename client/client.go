// Package client is the Go client for touchserved's binary wire
// protocol (internal/wire): length-prefixed frames over a persistent
// TCP connection, with client-side pipelining.
//
// A Conn is safe for concurrent use and multiplexes every request over
// one connection: each request carries a tag, responses are matched by
// tag, and in-order execution on the server means no response ever
// waits behind bookkeeping here. There is no reader goroutine: a caller
// waiting for a response reads the connection itself unless another
// caller already does, completing whatever calls the frames it reads
// belong to, so a lone round trip wakes no goroutine but its own — on an
// otherwise idle machine each extra wake-up is an idle core brought out
// of its sleep. Two usage patterns:
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
// Under both sits one raw round trip: Conn.Do (and Batch.Do) sends an
// opcode and an encoded payload and returns a Reply — the frames the
// server answered with, undecoded. Every typed call is an encoder, Do
// and one of Reply's decoders (IDs, Neighbors, Count, Join, Update,
// Datasets, Trace), so a relay such as the router's wire front can move
// the same frames on without knowing any payload format.
//
// Canceling a request's context sends a cancel frame for its tag and
// then waits for the guaranteed terminal response — the server frees
// the request's admission slot on abort, and the connection stays
// usable. A connection-level error fails every outstanding request
// with the same error and poisons the Conn; Pool replaces poisoned
// connections on the next checkout. A connection that dies while no
// request is in flight is noticed by the next Err or the next request,
// whichever looks first.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/api"
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

// Frame is one response frame as it arrived: opcode and undecoded
// payload.
type Frame struct {
	Op      byte
	Payload []byte
}

// Reply is everything the server sent for one request, undecoded: the
// terminal frame (embedded) and, in arrival order before it, the
// non-terminal frames — a join's OpPairs batches, a traced request's
// OpTrace trailer. The decoder methods below turn it into typed values;
// a relay writes the frames on as they are.
type Reply struct {
	Frame
	Stream []Frame
}

// call is one in-flight request: whoever reads its terminal frame fills
// it and closes done exactly once.
type call struct {
	done  chan struct{}
	reply Reply
	err   error // connection-level failure
}

// Conn is one binary-protocol connection. Safe for concurrent use.
type Conn struct {
	nc net.Conn
	w  *wire.Writer

	// rmu is the read side: whoever holds it reads frames from r and
	// completes the calls they answer, its own and everyone else's. A
	// reader that leaves puts a token on turn (capacity 1), which wakes
	// one caller still waiting to take the read side over.
	rmu  sync.Mutex
	r    *wire.Reader
	turn chan struct{}

	// serverInfo is the free-text build identification the server sent in
	// its hello frame ("touchserved/v1.2.3 rev/abc... go1.x"); empty for
	// servers predating the info field.
	serverInfo string
	// maxFrame is the server's inbound frame cap from the hello's
	// "maxframe/<bytes>" token, 0 when it advertised none.
	maxFrame int

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
func (c *Conn) ServerNode() string { return c.helloToken("node/") }

// helloToken returns the value of the first "<prefix><value>" token of
// the server's hello info, "" when there is none.
func (c *Conn) helloToken(prefix string) string {
	for _, f := range strings.Fields(c.serverInfo) {
		if v, ok := strings.CutPrefix(f, prefix); ok {
			return v
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
	r := wire.NewReader(nc, 0)
	c := &Conn{nc: nc, w: wire.NewWriter(nc), r: r, turn: make(chan struct{}, 1), pending: make(map[uint32]*call)}
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
	// A missing or unparsable token leaves the cap at 0: no local check.
	c.maxFrame, _ = strconv.Atoi(c.helloToken("maxframe/"))
	if v != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("client: server speaks protocol version %d, this client speaks %d", v, wire.Version)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// Close tears the connection down; every outstanding request fails
// with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Err returns the connection's sticky error, nil while it is usable.
// When nobody is reading the connection it looks at the socket first,
// without blocking, so a peer that hung up while the connection sat idle
// is reported here rather than to the next request.
func (c *Conn) Err() error {
	if c.rmu.TryLock() {
		if c.r.Buffered() == 0 {
			if err := hungUp(c.nc); err != nil {
				c.fail(fmt.Errorf("client: read: %w", err))
			}
		}
		c.releaseRead()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail poisons the connection: the first error sticks, every pending
// call completes with it, and the socket closes (which also ends a
// blocked read).
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

// readFrame reads one response frame and hands it to its pending call,
// matched by tag and copied onto the call's Reply, decoding nothing.
// Non-terminal frames (OpPairs batches, the OpTrace trailer) accumulate;
// any other opcode completes the call. It reports false once the
// connection has failed. The caller holds rmu.
func (c *Conn) readFrame() bool {
	op, tag, payload, err := c.r.ReadFrame()
	if err != nil {
		c.fail(fmt.Errorf("client: read: %w", err))
		return false
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
		return false
	}
	f := Frame{Op: op, Payload: append([]byte(nil), payload...)}
	if nonTerminal {
		cl.reply.Stream = append(cl.reply.Stream, f)
		return true
	}
	cl.reply.Frame = f
	close(cl.done)
	return true
}

// releaseRead gives the read side up and lets one waiting caller take it.
func (c *Conn) releaseRead() {
	c.rmu.Unlock()
	select {
	case c.turn <- struct{}{}:
	default: // a token is waiting already
	}
}

// tryRead takes the read side if it is free, reads until the call has
// completed (or the connection failed) and gives the read side up again,
// token and all. It reports false when somebody else holds the read
// side — who will leave a token in turn when they go.
func (c *Conn) tryRead(cl *call) bool {
	if !c.rmu.TryLock() {
		return false
	}
	for !cl.completed() && c.readFrame() {
	}
	c.releaseRead()
	return true
}

// await blocks until the call completes, reading the connection itself
// whenever nobody else does. A token taken from turn is the duty to see
// the read side manned, and it is never dropped: the taker goes through
// tryRead even when its own call has completed meanwhile — the departing
// reader may have completed it and left the token in the same breath, and
// the token may be all that stands between another waiter and a
// connection nobody reads. Either the read side is free, and tryRead
// leaves a fresh token behind, or someone holds it and will.
func (c *Conn) await(cl *call) {
	for !cl.completed() {
		if c.tryRead(cl) {
			continue
		}
		if gap := awaitGap.Load(); gap != nil {
			(*gap)()
		}
		select {
		case <-cl.done:
		case <-c.turn:
			c.tryRead(cl)
		}
	}
}

// awaitGap, when a test sets it, runs between a waiter finding the read
// side taken and its going to sleep — the window in which its call can
// complete and a token arrive at once.
var awaitGap atomic.Pointer[func()]

// completed reports whether done has been closed.
func (cl *call) completed() bool {
	select {
	case <-cl.done:
		return true
	default:
		return false
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

// admit refuses a payload of n bytes the server's advertised frame cap
// would reject. The server answers an over-cap frame by closing the
// connection, failing every request pipelined on it; refusing here, with
// the code HTTP's 413 carries, fails this one request alone. Servers
// that advertise no cap get no check.
func (c *Conn) admit(n int) error {
	n += 1 + 4 // the cap is on what the length prefix counts: opcode, tag, payload
	if c.maxFrame > 0 && n > c.maxFrame {
		return &ServerError{Code: api.CodeBodyTooLarge, Message: fmt.Sprintf(
			"request frame of %d bytes exceeds the server's %d-byte cap", n, c.maxFrame)}
	}
	return nil
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
func (c *Conn) wait(ctx context.Context, tag uint32, cl *call) (*Reply, error) {
	if ctx.Done() == nil || cl.completed() {
		c.await(cl)
	} else {
		// The waiter may be the one blocked in the read, so the cancel
		// frame goes out from the context's own goroutine.
		stop := context.AfterFunc(ctx, func() { c.sendCancel(tag) })
		c.await(cl)
		if !stop() && cl.err == nil {
			return nil, ctx.Err()
		}
	}
	if cl.err != nil {
		return nil, cl.err
	}
	return &cl.reply, nil
}

// Do is the raw round trip under every typed call: one frame out,
// flushed, and the frames the server answered with returned undecoded.
// A server error frame is a Reply like any other (see Reply.Err); the
// error return is for requests that got no answer — a refused over-cap
// payload (*ServerError, body_too_large, nothing written), a dead
// connection, an expired context.
func (c *Conn) Do(ctx context.Context, op byte, payload []byte) (*Reply, error) {
	if err := c.admit(len(payload)); err != nil {
		return nil, err
	}
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

// Err returns the server's structured error when the reply's terminal
// frame is OpError, nil for any other answer.
func (r *Reply) Err() error {
	if r.Op != wire.OpError {
		return nil
	}
	code, msg, err := wire.DecodeErrorResp(r.Payload)
	if err != nil {
		return fmt.Errorf("client: bad error frame: %w", err)
	}
	return &ServerError{Code: code, Message: msg}
}

// expect opens every typed decoder: the server's error if it sent one,
// a protocol error if the terminal opcode is not the answer's.
func (r *Reply) expect(op byte) error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Op != op {
		return fmt.Errorf("client: unexpected response opcode %#02x", r.Op)
	}
	return nil
}

// IDs decodes a range or point query's answer.
func (r *Reply) IDs() (version int64, ids []touch.ID, err error) {
	if err := r.expect(wire.OpIDs); err != nil {
		return 0, nil, err
	}
	return wire.DecodeIDsResp(r.Payload)
}

// Neighbors decodes a kNN query's answer.
func (r *Reply) Neighbors() (version int64, nbrs []touch.Neighbor, err error) {
	if err := r.expect(wire.OpNeighbors); err != nil {
		return 0, nil, err
	}
	return wire.DecodeNeighborsResp(r.Payload)
}

// Count decodes a count-only join's answer.
func (r *Reply) Count() (version, count int64, err error) {
	if err := r.expect(wire.OpCount); err != nil {
		return 0, 0, err
	}
	return wire.DecodeCountResp(r.Payload)
}

// Join decodes a streaming join: the OpPairs batches of the stream, then
// OpJoinDone with the version and total. Pairs are sorted into the
// canonical (indexed, probe) ascending order the HTTP path uses, so the
// two transports answer byte-identically.
func (r *Reply) Join() (version int64, pairs []touch.Pair, count int64, err error) {
	if err := r.expect(wire.OpJoinDone); err != nil {
		return 0, nil, 0, err
	}
	for _, f := range r.Stream {
		if f.Op != wire.OpPairs {
			continue
		}
		if pairs, err = wire.DecodePairsResp(f.Payload, pairs); err != nil {
			return 0, nil, 0, fmt.Errorf("client: bad pairs frame: %w", err)
		}
	}
	version, count, err = wire.DecodeJoinDoneResp(r.Payload)
	if err != nil {
		return 0, nil, 0, err
	}
	if count != int64(len(pairs)) {
		return 0, nil, 0, fmt.Errorf("client: join stream carried %d pairs but the trailer counts %d", len(pairs), count)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return version, pairs, count, nil
}

// Update decodes an update batch's result.
func (r *Reply) Update() (UpdateResult, error) {
	if err := r.expect(wire.OpUpdateDone); err != nil {
		return UpdateResult{}, err
	}
	u, err := wire.DecodeUpdateResp(r.Payload)
	if err != nil {
		return UpdateResult{}, err
	}
	res := UpdateResult{
		Version: u.Version, Deleted: u.Deleted,
		DeltaInserts: u.DeltaInserts, DeltaTombstones: u.DeltaTombstones,
	}
	if u.FirstID >= 0 {
		res.InsertedIDs = make([]touch.ID, u.Inserted)
		for i := range res.InsertedIDs {
			res.InsertedIDs[i] = touch.ID(u.FirstID) + touch.ID(i)
		}
	}
	return res, nil
}

// Datasets decodes a catalog listing.
func (r *Reply) Datasets() ([]DatasetInfo, error) {
	if err := r.expect(wire.OpCatalogResp); err != nil {
		return nil, err
	}
	return wire.DecodeCatalogResp(r.Payload)
}

// --- tracing --------------------------------------------------------------

// Trace is the per-request engine trace the server returns when a
// request asks for one — the X-Touch-Trace response field of the HTTP
// API, one declaration for both transports: the server-assigned request
// ID (usable to correlate with server logs and the slow-query log), wall
// time per engine phase keyed by phase name ("admission", "decode",
// "join", ...; phases the request never entered are absent), the
// engine's work counters for exactly this request, and why the engine
// stopped early ("none" for a complete run).
type Trace = api.Trace

// Trace decodes the reply's OpTrace trailer. A missing or malformed
// trailer yields nil — tracing is best-effort diagnostics and never
// fails the request it rides on.
func (r *Reply) Trace() *Trace {
	for _, f := range r.Stream {
		if f.Op != wire.OpTrace {
			continue
		}
		tr, err := wire.DecodeTraceResp(f.Payload)
		if err != nil {
			return nil
		}
		t := &Trace{
			RequestID:   tr.RequestID,
			PhaseNs:     make(map[string]int64),
			Comparisons: tr.Comparisons,
			NodeTests:   tr.NodeTests,
			Filtered:    tr.Filtered,
			Results:     tr.Results,
			Replicas:    tr.Replicas,
			Cancel:      trace.CancelName(int32(tr.Cancel)),
		}
		for i, ns := range tr.PhaseNs {
			if ns > 0 && i < int(trace.NumPhases) {
				t.PhaseNs[trace.Phase(i).Name()] = ns
			}
		}
		return t
	}
	return nil
}

// --- unary API ------------------------------------------------------------

// Range returns the IDs of indexed objects intersecting the box, and
// the dataset version that answered.
func (c *Conn) Range(ctx context.Context, dataset string, b touch.Box) (version int64, ids []touch.ID, err error) {
	r, err := c.Do(ctx, wire.OpRange, wire.AppendRangeReq(nil, dataset, b))
	if err != nil {
		return 0, nil, err
	}
	return r.IDs()
}

// RangeTraced is Range with per-request tracing: the server returns its
// engine trace alongside the result.
func (c *Conn) RangeTraced(ctx context.Context, dataset string, b touch.Box) (version int64, ids []touch.ID, tr *Trace, err error) {
	r, err := c.Do(ctx, wire.OpRange, wire.AppendRangeReqFlags(nil, dataset, b, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, ids, err = r.IDs()
	return version, ids, r.Trace(), err
}

// Point returns the IDs of indexed objects containing the point.
func (c *Conn) Point(ctx context.Context, dataset string, pt touch.Point) (version int64, ids []touch.ID, err error) {
	r, err := c.Do(ctx, wire.OpPoint, wire.AppendPointReq(nil, dataset, pt))
	if err != nil {
		return 0, nil, err
	}
	return r.IDs()
}

// PointTraced is Point with per-request tracing.
func (c *Conn) PointTraced(ctx context.Context, dataset string, pt touch.Point) (version int64, ids []touch.ID, tr *Trace, err error) {
	r, err := c.Do(ctx, wire.OpPoint, wire.AppendPointReqFlags(nil, dataset, pt, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, ids, err = r.IDs()
	return version, ids, r.Trace(), err
}

// KNN returns the k nearest indexed objects to the point.
func (c *Conn) KNN(ctx context.Context, dataset string, pt touch.Point, k int) (version int64, nbrs []touch.Neighbor, err error) {
	r, err := c.Do(ctx, wire.OpKNN, wire.AppendKNNReq(nil, dataset, pt, k))
	if err != nil {
		return 0, nil, err
	}
	return r.Neighbors()
}

// KNNTraced is KNN with per-request tracing.
func (c *Conn) KNNTraced(ctx context.Context, dataset string, pt touch.Point, k int) (version int64, nbrs []touch.Neighbor, tr *Trace, err error) {
	r, err := c.Do(ctx, wire.OpKNN, wire.AppendKNNReqFlags(nil, dataset, pt, k, wire.QueryFlagTrace))
	if err != nil {
		return 0, nil, nil, err
	}
	version, nbrs, err = r.Neighbors()
	return version, nbrs, r.Trace(), err
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
	r, err := c.Do(ctx, wire.OpJoin, wire.AppendJoinReq(nil, dataset, spec.Eps, spec.Workers, true, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, 0, err
	}
	return r.Count()
}

// JoinCountTraced is JoinCount with per-request tracing.
func (c *Conn) JoinCountTraced(ctx context.Context, dataset string, spec JoinSpec) (version, count int64, tr *Trace, err error) {
	r, err := c.Do(ctx, wire.OpJoin,
		wire.AppendJoinReqFlags(nil, dataset, spec.Eps, spec.Workers, wire.FlagCountOnly|wire.FlagTrace, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, 0, nil, err
	}
	version, count, err = r.Count()
	return version, count, r.Trace(), err
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
	r, err := c.Do(ctx, wire.OpUpdate, wire.AppendUpdateReq(nil, dataset, spec.Delete, spec.Insert))
	if err != nil {
		return UpdateResult{}, err
	}
	return r.Update()
}

// DatasetInfo is one row of a wire catalog listing — the wire twin of
// GET /v1/datasets, carrying the fields a routing tier needs to merge
// listings across replicas.
type DatasetInfo = wire.CatalogEntry

// Datasets lists the server's catalog, sorted by name.
func (c *Conn) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	r, err := c.Do(ctx, wire.OpCatalog, nil)
	if err != nil {
		return nil, err
	}
	return r.Datasets()
}

// Join runs a join and materializes its pairs, sorted canonically.
// Pairs stream from the server in batches, so — like the HTTP NDJSON
// mode, and unlike buffered HTTP joins — there is no server-side
// MaxJoinPairs cap; the cap here is this client's memory.
func (c *Conn) Join(ctx context.Context, dataset string, spec JoinSpec) (version int64, pairs []touch.Pair, count int64, err error) {
	r, err := c.Do(ctx, wire.OpJoin, wire.AppendJoinReq(nil, dataset, spec.Eps, spec.Workers, false, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, nil, 0, err
	}
	return r.Join()
}

// JoinTraced is Join with per-request tracing.
func (c *Conn) JoinTraced(ctx context.Context, dataset string, spec JoinSpec) (version int64, pairs []touch.Pair, count int64, tr *Trace, err error) {
	r, err := c.Do(ctx, wire.OpJoin,
		wire.AppendJoinReqFlags(nil, dataset, spec.Eps, spec.Workers, wire.FlagTrace, spec.Probe, spec.Boxes))
	if err != nil {
		return 0, nil, 0, nil, err
	}
	version, pairs, count, err = r.Join()
	return version, pairs, count, r.Trace(), err
}
