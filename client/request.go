package client

import (
	"touch"
	"touch/internal/wire"
)

// Request is one wire request as a value: built by Range, Point, KNN,
// Join, CountJoin, Update, Catalog or Raw, marked for tracing with
// Traced, and sent with Conn.Do or queued with Batch.Add. Nothing is
// encoded until then: the request is written straight into the buffer
// it goes out from, so building one allocates nothing.
type Request struct {
	op      byte
	flags   byte   // the trace and count-only bits, in op's own encoding
	raw     bool   // built by Raw: payload goes out as it is
	payload []byte // a Raw request's encoded payload
	name    string
	box     touch.Box
	pt      touch.Point
	k       int
	join    JoinSpec
	update  UpdateSpec
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

// UpdateSpec is one incremental-update batch against a loaded dataset.
// Deletes apply before inserts, so a batch can replace objects without
// tombstoning its own inserts; unknown or already-deleted IDs are
// skipped silently.
type UpdateSpec struct {
	Insert []touch.Box
	Delete []touch.ID
}

// Range asks for the IDs of the dataset's objects intersecting the box;
// Reply.IDs decodes the answer.
func Range(dataset string, b touch.Box) Request {
	return Request{op: wire.OpRange, name: dataset, box: b}
}

// Point asks for the IDs of the dataset's objects containing the point;
// Reply.IDs decodes the answer.
func Point(dataset string, pt touch.Point) Request {
	return Request{op: wire.OpPoint, name: dataset, pt: pt}
}

// KNN asks for the dataset's k objects nearest the point;
// Reply.Neighbors decodes the answer.
func KNN(dataset string, pt touch.Point, k int) Request {
	return Request{op: wire.OpKNN, name: dataset, pt: pt, k: k}
}

// Join asks for the pairs the dataset forms with spec's probe side,
// streamed back in batches; Reply.Join decodes and sorts them. Like the
// HTTP NDJSON mode, and unlike a buffered HTTP join, there is no
// server-side pair cap: the cap is the client's memory.
func Join(dataset string, spec JoinSpec) Request {
	return Request{op: wire.OpJoin, name: dataset, join: spec}
}

// CountJoin asks for the number of pairs Join would return;
// Reply.Count decodes the answer.
func CountJoin(dataset string, spec JoinSpec) Request {
	return Request{op: wire.OpJoin, flags: wire.FlagCountOnly, name: dataset, join: spec}
}

// Update applies one batch of incremental inserts and deletes — the
// wire twin of PATCH /v1/datasets/{name}; Reply.Update decodes the
// result. The update is visible to every later request, on any
// connection, once its reply is in, and requests execute in order on
// the server, so a query queued after an update in one Batch sees it.
func Update(dataset string, spec UpdateSpec) Request {
	return Request{op: wire.OpUpdate, name: dataset, update: spec}
}

// Catalog asks for the server's catalog listing; Reply.Datasets decodes
// it.
func Catalog() Request { return Request{op: wire.OpCatalog} }

// Raw is a request whose payload is already encoded, sent as it is —
// for a relay, which moves frames on without knowing their formats.
func Raw(op byte, payload []byte) Request {
	return Request{op: op, raw: true, payload: payload}
}

// Traced returns the request with its trace flag set: the server sends
// its engine trace back with the answer (see Reply.Trace). Update,
// Catalog and Raw requests have no flag to set and come back unchanged.
func (q Request) Traced() Request {
	switch {
	case q.raw:
	case q.op == wire.OpJoin:
		q.flags |= wire.FlagTrace
	case q.op == wire.OpRange || q.op == wire.OpPoint || q.op == wire.OpKNN:
		q.flags |= wire.QueryFlagTrace
	}
	return q
}

// appendTo appends the request's payload to dst.
func (q *Request) appendTo(dst []byte) []byte {
	if q.raw {
		return append(dst, q.payload...)
	}
	switch q.op {
	case wire.OpRange:
		return wire.AppendQueryFlags(wire.AppendRangeReq(dst, q.name, q.box), q.flags)
	case wire.OpPoint:
		return wire.AppendQueryFlags(wire.AppendPointReq(dst, q.name, q.pt), q.flags)
	case wire.OpKNN:
		return wire.AppendQueryFlags(wire.AppendKNNReq(dst, q.name, q.pt, q.k), q.flags)
	case wire.OpJoin:
		return wire.AppendJoinReq(dst, q.name, q.join.Eps, q.join.Workers, q.flags, q.join.Probe, q.join.Boxes)
	case wire.OpUpdate:
		return wire.AppendUpdateReq(dst, q.name, q.update.Delete, q.update.Insert)
	}
	return dst // OpCatalog has no payload
}
