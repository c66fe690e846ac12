package api

// The HTTP data plane — POST /v1/datasets/{name}/query, POST …/join and
// PATCH /v1/datasets/{name} — written once for touchserved and
// touchrouter alike: decode the JSON body, encode the binary wire frame
// it means, hand the frame to a Doer and render the frames that come
// back. touchserved's Doer executes the frame in process, through its
// wire listener's handlers; touchrouter's relays it to the owners. Every
// frame asks for the trace: the X-Touch-Request-Id header comes from it,
// and the trace object when the client sent "X-Touch-Trace: 1".

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"touch"
	"touch/internal/binfmt"
	"touch/internal/trace"
	"touch/internal/wire"
)

// TraceHeader is the opt-in request header: "X-Touch-Trace: 1" adds the
// request's span to the JSON answer of a query or buffered join.
const TraceHeader = "X-Touch-Trace"

// RequestIDHeader names the answering server's request ID — the ID its
// slow log and failure log know the request by.
const RequestIDHeader = "X-Touch-Request-Id"

// NDJSONContentType is the media type selecting (and labelling) the
// streaming join response.
const NDJSONContentType = "application/x-ndjson"

// WantsNDJSON reports whether the Accept header names the NDJSON media
// type as acceptable — as a proper token, not a substring, and not
// refused with q=0. Anything else gets the buffered JSON answer.
func WantsNDJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		if mt, params, err := mime.ParseMediaType(part); err == nil && mt == NDJSONContentType {
			q, err := strconv.ParseFloat(params["q"], 64)
			return err != nil || q > 0
		}
	}
	return false
}

// Doer executes one encoded request frame: the seam under the data
// plane. The answer's non-terminal frames (OpPairs batches, the OpTrace
// trailer) go to stream in order, each payload valid only for the call;
// the terminal frame is returned. An OpError frame is an answer; err is
// a request that got none, an *Error when the Doer can say which.
type Doer interface {
	Do(ctx context.Context, op byte, payload []byte, stream func(op byte, p []byte) error) (byte, []byte, error)
}

// Front is the HTTP data plane over a Doer. The caller routes, checks
// the method and the dataset name, and supplies the request's context.
type Front struct {
	// MaxBodyBytes caps request bodies; larger ones get 413.
	MaxBodyBytes int64
}

// int32Sat saturates a JSON integer to the frame's signed 32-bit word, so
// a value the frame cannot carry keeps its meaning instead of wrapping.
func int32Sat(v int) int { return max(math.MinInt32, min(v, math.MaxInt32)) }

// exchange is one request seen from the front.
type exchange struct {
	w       http.ResponseWriter
	traced  bool // the client asked for the trace object
	span    trace.Span
	spanned bool // span holds the answer's trace frame
	// pairs takes each OpPairs payload; nil refuses them.
	pairs   func(p []byte) error
	started bool  // the NDJSON body is on its way
	err     error // the first stream frame the front could not take
}

// stream is the Doer's stream callback; after a frame it could not take
// it takes none.
func (x *exchange) stream(op byte, p []byte) error {
	switch {
	case x.err != nil:
	case op == wire.OpTrace:
		if x.span, x.err = wire.DecodeTrace(p); x.err != nil {
			break
		}
		x.spanned = true
		if hdr := x.w.Header(); !x.started && hdr.Get(RequestIDHeader) != x.span.RequestID {
			hdr.Set(RequestIDHeader, x.span.RequestID)
		}
	case op == wire.OpPairs && x.pairs != nil:
		x.err = x.pairs(p)
	default:
		x.err = fmt.Errorf("unexpected %#02x frame before the answer", op)
	}
	return x.err
}

// do runs one request frame and writes its answer: render turns the
// terminal payload of a want answer into the JSON body (nil: render
// wrote the body itself); anything else — no answer, an error frame, a
// stream the front could not take, a payload render could not decode —
// is written as the error it is.
func (x *exchange) do(ctx context.Context, d Doer, op byte, payload []byte, want byte, render func(p []byte) (any, error)) {
	op, p, err := d.Do(ctx, op, payload, x.stream)
	var e *Error
	switch {
	case err != nil:
		if e, _ = err.(*Error); e == nil {
			e = Errorf(CodeInternal, "%v", err)
		}
	case op == wire.OpError:
		code, msg, err := wire.DecodeErrorResp(p)
		if err != nil {
			msg = fmt.Sprintf("undecodable error frame: %v", err)
		}
		e = &Error{Code: code, Message: msg}
	case x.err != nil || op != want:
		e = Errorf(CodeInternal, "answer frame %#02x (want %#02x), stream error %v", op, want, x.err)
	default:
		body, err := render(p)
		if err == nil {
			if body != nil {
				WriteJSON(x.w, http.StatusOK, body)
			}
			return
		}
		e = Errorf(CodeInternal, "decoding the answer: %v", err)
	}
	if !x.started {
		WriteError(x.w, e)
	}
}

// begin decodes the JSON body into req and opens the exchange; nil means
// the body was refused, and answered.
func (f *Front) begin(w http.ResponseWriter, r *http.Request, req any) *exchange {
	if e := DecodeBody(w, r, f.MaxBodyBytes, req); e != nil {
		WriteError(w, e)
		return nil
	}
	return &exchange{w: w, traced: r.Header.Get(TraceHeader) == "1"}
}

// Query answers POST /v1/datasets/{name}/query.
func (f *Front) Query(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, d Doer) {
	var req QueryRequest
	x := f.begin(w, r, &req)
	if x == nil {
		return
	}
	q, e := req.Query()
	if e != nil {
		WriteError(w, e)
		return
	}
	// Room for the largest query frame: the name, a box, the flags byte.
	payload := make([]byte, 0, 2+len(name)+binfmt.BoxSize+1)
	op, want := wire.OpRange, wire.OpIDs
	switch q.Type {
	case TypeRange:
		payload = wire.AppendRangeReq(payload, name, q.Box)
	case TypePoint:
		op, payload = wire.OpPoint, wire.AppendPointReq(payload, name, q.Point)
	default:
		op, want, payload = wire.OpKNN, wire.OpNeighbors, wire.AppendKNNReq(payload, name, q.Point, int32Sat(q.K))
	}
	x.do(ctx, d, op, wire.AppendQueryFlags(payload, wire.QueryFlagTrace), want, func(p []byte) (any, error) {
		var (
			version int64
			ids     []touch.ID
			nbrs    []touch.Neighbor
			err     error
		)
		if want == wire.OpNeighbors {
			version, nbrs, err = wire.DecodeNeighborsResp(p)
		} else {
			version, ids, err = wire.DecodeIDsResp(p)
		}
		resp := NewQueryResponse(name, version, q.Type, ids, nbrs)
		if x.traced && x.spanned {
			resp.Trace = NewTrace(&x.span)
		}
		return resp, err
	})
}

// Update answers PATCH /v1/datasets/{name}.
func (f *Front) Update(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, d Doer) {
	var req UpdateRequest
	x := f.begin(w, r, &req)
	if x == nil {
		return
	}
	inserts, e := Boxes("insert", req.Insert)
	if e != nil {
		WriteError(w, e)
		return
	}
	x.do(ctx, d, wire.OpUpdate, wire.AppendUpdateReq(nil, name, req.Delete, inserts), wire.OpUpdateDone, func(p []byte) (any, error) {
		u, err := wire.DecodeUpdateResp(p)
		resp := UpdateResponse{Name: name, Version: u.Version, Deleted: u.Deleted,
			DeltaInserts: u.DeltaInserts, DeltaTombstones: u.DeltaTombstones}
		for i := 0; u.FirstID >= 0 && i < u.Inserted; i++ {
			resp.InsertedIDs = append(resp.InsertedIDs, touch.ID(u.FirstID)+touch.ID(i))
		}
		return resp, err
	})
}

// Join answers POST /v1/datasets/{name}/join: count_only with one count,
// "Accept: application/x-ndjson" as a pair stream, anything else as one
// JSON answer with the pairs in canonical order.
func (f *Front) Join(ctx context.Context, w http.ResponseWriter, r *http.Request, name string, d Doer) {
	var req JoinRequest
	x := f.begin(w, r, &req)
	if x == nil {
		return
	}
	boxes, e := req.ProbeBoxes()
	if e == nil && req.Probe != "" && !ValidDatasetName(req.Probe) {
		e = Errorf(CodeInvalidName, "probe name must be 1-128 chars of [A-Za-z0-9._-], got %q", req.Probe)
	}
	if e != nil {
		WriteError(w, e)
		return
	}
	flags, want := wire.FlagTrace, wire.OpJoinDone
	if req.CountOnly {
		flags, want = flags|wire.FlagCountOnly, wire.OpCount
	}
	payload := wire.AppendJoinReq(nil, name, req.Eps, int32Sat(req.Workers), flags, req.Probe, boxes)
	if !req.CountOnly && WantsNDJSON(r.Header.Get("Accept")) {
		x.streamJoin(ctx, d, payload)
		return
	}
	// Pairs come in engine order; the answer carries them in canonical
	// (indexed, probe) order.
	var res touch.Result
	x.pairs = func(p []byte) (err error) {
		res.Pairs, err = wire.DecodePairsResp(p, res.Pairs)
		return err
	}
	x.do(ctx, d, wire.OpJoin, payload, want, func(p []byte) (any, error) {
		resp := JoinResponse{Dataset: name, Probe: req.Probe, ProbeObjects: len(boxes)}
		if x.traced && x.spanned {
			resp.Trace = NewTrace(&x.span)
		}
		var err error
		if resp.Version, resp.Count, err = wire.DecodeCountResp(p); err == nil && !req.CountOnly {
			if resp.Count != int64(len(res.Pairs)) {
				err = fmt.Errorf("join stream carried %d pairs but the trailer counts %d", len(res.Pairs), resp.Count)
			}
			res.SortPairs()
			resp.Pairs = Pairs(res.Pairs)
		}
		return resp, err
	})
}

// streamJoin answers a join as NDJSON: one `[a,b]` line per pair in the
// order the OpPairs batches bring them, then a `{"count":N}` trailer
// line once the join is complete. The 200 goes out with the first batch
// — touchserved sends the first pair alone, so the stream starts with
// the first pair the engine finds — or, for a join that found none, with
// the trailer line; an error before then is answered like the buffered
// join's. An error after it ends the stream without the trailer line,
// which is how a client tells a truncated stream.
func (x *exchange) streamJoin(ctx context.Context, d Doer, payload []byte) {
	bw := bufio.NewWriterSize(x.w, 64<<10)
	start := func() {
		x.started = true
		x.w.Header().Set("Content-Type", NDJSONContentType)
		x.w.WriteHeader(http.StatusOK)
	}
	var line []byte
	n := int64(0)
	x.pairs = func(p []byte) error {
		pairs, err := wire.DecodePairsResp(p, nil)
		if err != nil {
			return err
		}
		if !x.started {
			start()
		}
		for _, pr := range pairs {
			line = strconv.AppendInt(append(line[:0], '['), int64(pr.A), 10)
			line = strconv.AppendInt(append(line, ','), int64(pr.B), 10)
			if _, err := bw.Write(append(line, "]\n"...)); err != nil {
				return err
			}
		}
		if n == 0 { // a failed flush fails the next write, which reports it
			_ = bw.Flush()
			_ = http.NewResponseController(x.w).Flush()
		}
		n += int64(len(pairs))
		return nil
	}
	x.do(ctx, d, wire.OpJoin, payload, wire.OpJoinDone, func(p []byte) (any, error) {
		if !x.started {
			start()
		}
		_, err := fmt.Fprintf(bw, "{\"count\":%d}\n", n)
		return nil, err
	})
	_ = bw.Flush() // write errors mean a gone client; nothing to do
}
