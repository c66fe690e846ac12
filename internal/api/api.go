// Package api is the HTTP/JSON contract of the serving tier, declared
// once: the request and response shapes of /v1/datasets/{name}/query,
// /join and PATCH, the error body and its machine-readable code
// vocabulary with the one code → HTTP status table, the dataset-name
// rule, request-body decoding and the JSON writers. touchserved
// (internal/server) answers with these shapes, touchrouter
// (internal/router) re-renders backend wire answers into them, and
// cmd/touchwire prints them — so "a routed answer is byte-identical to a
// direct one" holds by construction, not by keeping copies in step.
//
// Field order and omitempty placement are part of the contract: the
// byte-identity tests in internal/server and internal/router pin them.
package api

import (
	"encoding/json"
	"errors"
	"net/http"

	"touch"
)

// Query types, the values of QueryRequest.Type.
const (
	TypeRange = "range"
	TypePoint = "point"
	TypeKNN   = "knn"
)

// QueryRequest is the JSON body of POST /v1/datasets/{name}/query.
type QueryRequest struct {
	Type  string    `json:"type"` // "range" | "point" | "knn"
	Box   []float64 `json:"box,omitempty"`
	Point []float64 `json:"point,omitempty"`
	K     int       `json:"k,omitempty"`
}

// Query is a QueryRequest after shape validation: the form both codecs
// (JSON here, binary frames in internal/wire) hand to the execute core.
// Value validation — NaN coordinates, inverted boxes, k < 1 — is the
// engine's, mapped back through EngineError.
type Query struct {
	Type  string
	Box   touch.Box   // TypeRange
	Point touch.Point // TypePoint, TypeKNN
	K     int         // TypeKNN
}

// Query validates the request's type and row arities.
func (r *QueryRequest) Query() (Query, *Error) {
	q := Query{Type: r.Type, K: r.K}
	switch r.Type {
	case TypeRange:
		if len(r.Box) != 6 {
			return q, Errorf(CodeInvalidBox, "range query needs a 6-number box, got %d", len(r.Box))
		}
		q.Box = boxFromRow(r.Box)
	case TypePoint, TypeKNN:
		if len(r.Point) != 3 {
			return q, Errorf(CodeInvalidPoint, "%s query needs a 3-number point, got %d", r.Type, len(r.Point))
		}
		q.Point = touch.Point{r.Point[0], r.Point[1], r.Point[2]}
	default:
		return q, Errorf(CodeBadRequest, "unknown query type %q (want range, point or knn)", r.Type)
	}
	return q, nil
}

// boxFromRow converts one [minX minY minZ maxX maxY maxZ] row; the
// caller has checked its length.
func boxFromRow(row []float64) touch.Box {
	return touch.Box{
		Min: touch.Point{row[0], row[1], row[2]},
		Max: touch.Point{row[3], row[4], row[5]},
	}
}

// Boxes converts decoded JSON rows to boxes, rejecting any row that is
// not six numbers; what names a row in the message ("box", "insert").
// The result is non-nil even for zero rows. Whether the boxes are valid
// dataset members (finite, Min <= Max) is checked where they are used,
// by touch.DatasetFromBoxes.
func Boxes(what string, rows [][]float64) ([]touch.Box, *Error) {
	boxes := make([]touch.Box, len(rows))
	for i, row := range rows {
		if len(row) != 6 {
			return nil, Errorf(CodeInvalidBox,
				"%s %d: want 6 numbers [minX minY minZ maxX maxY maxZ], got %d", what, i, len(row))
		}
		boxes[i] = boxFromRow(row)
	}
	return boxes, nil
}

// Neighbor is one kNN result.
type Neighbor struct {
	ID       touch.ID `json:"id"`
	Distance float64  `json:"distance"`
}

// QueryResponse is the answer to a query.
type QueryResponse struct {
	Dataset   string     `json:"dataset"`
	Version   int64      `json:"version"`
	Type      string     `json:"type"`
	Count     int        `json:"count"`
	IDs       []touch.ID `json:"ids,omitempty"`
	Neighbors []Neighbor `json:"neighbors,omitempty"`
	Trace     *Trace     `json:"trace,omitempty"`
}

// NewQueryResponse renders an engine answer: ids for range and point
// queries, nbrs for kNN.
func NewQueryResponse(dataset string, version int64, typ string, ids []touch.ID, nbrs []touch.Neighbor) QueryResponse {
	resp := QueryResponse{Dataset: dataset, Version: version, Type: typ, Count: len(ids), IDs: ids}
	if typ == TypeKNN {
		resp.Count = len(nbrs)
		resp.Neighbors = make([]Neighbor, len(nbrs))
		for i, n := range nbrs {
			resp.Neighbors[i] = Neighbor{ID: n.ID, Distance: n.Distance}
		}
	}
	return resp
}

// Trace is the X-Touch-Trace response field: the request's span — phase
// wall times keyed by phase name (zero phases omitted), engine counters,
// cancel cause — under the server-assigned request ID.
type Trace struct {
	RequestID   string           `json:"request_id"`
	PhaseNs     map[string]int64 `json:"phase_ns"`
	Comparisons int64            `json:"comparisons"`
	NodeTests   int64            `json:"node_tests"`
	Filtered    int64            `json:"filtered"`
	Results     int64            `json:"results"`
	Replicas    int64            `json:"replicas"`
	Cancel      string           `json:"cancel"`
}

// JoinRequest is the JSON body of POST /v1/datasets/{name}/join. Exactly
// one of Boxes (an inline probe dataset) or Probe (the name of a loaded
// dataset) selects the probe side.
type JoinRequest struct {
	Boxes     [][]float64 `json:"boxes,omitempty"`
	Probe     string      `json:"probe,omitempty"`
	Eps       float64     `json:"eps,omitempty"`
	Workers   int         `json:"workers,omitempty"`
	CountOnly bool        `json:"count_only,omitempty"`
}

// ProbeBoxes checks that exactly one probe side is given and converts
// the inline one: nil boxes (and no error) mean the named probe.
func (r *JoinRequest) ProbeBoxes() ([]touch.Box, *Error) {
	switch {
	case r.Probe != "" && r.Boxes != nil:
		return nil, Errorf(CodeBadRequest, "give either inline boxes or a probe name, not both")
	case r.Probe != "":
		return nil, nil
	case r.Boxes != nil:
		return Boxes("box", r.Boxes)
	}
	return nil, Errorf(CodeBadRequest, "give inline boxes or a probe name")
}

// JoinStats are the engine statistics of a buffered join. The wire
// protocol does not carry them, so routed answers and touchwire omit the
// object.
type JoinStats struct {
	Comparisons int64 `json:"comparisons"`
	NodeTests   int64 `json:"node_tests"`
	Filtered    int64 `json:"filtered"`
	MemoryBytes int64 `json:"memory_bytes"`
	AssignNs    int64 `json:"assign_ns"`
	JoinNs      int64 `json:"join_ns"`
}

// JoinResponse is the buffered answer to a join.
type JoinResponse struct {
	Dataset      string        `json:"dataset"`
	Version      int64         `json:"version"`
	Probe        string        `json:"probe,omitempty"`
	ProbeVersion int64         `json:"probe_version,omitempty"`
	ProbeObjects int           `json:"probe_objects"`
	Count        int64         `json:"count"`
	Pairs        [][2]touch.ID `json:"pairs,omitempty"`
	Stats        *JoinStats    `json:"stats,omitempty"`
	Trace        *Trace        `json:"trace,omitempty"`
}

// Pairs renders join pairs as [indexed, probe] ID arrays.
func Pairs(pairs []touch.Pair) [][2]touch.ID {
	out := make([][2]touch.ID, len(pairs))
	for i, p := range pairs {
		out[i] = [2]touch.ID{p.A, p.B}
	}
	return out
}

// UpdateRequest is the JSON body of PATCH /v1/datasets/{name}: a batch
// of incremental updates against the serving version. Deletes apply
// before inserts, so one batch can replace objects without tombstoning
// its own inserts.
type UpdateRequest struct {
	// Insert holds one [minX minY minZ maxX maxY maxZ] row per new
	// object; IDs are assigned by the server, consecutively.
	Insert [][]float64 `json:"insert,omitempty"`
	// Delete lists object IDs to tombstone. Unknown or already-deleted
	// IDs are skipped silently (idempotent).
	Delete []touch.ID `json:"delete,omitempty"`
}

// UpdateResponse describes one applied update batch.
type UpdateResponse struct {
	Name            string     `json:"name"`
	Version         int64      `json:"version"`
	InsertedIDs     []touch.ID `json:"inserted_ids,omitempty"`
	Deleted         int        `json:"deleted"`
	DeltaInserts    int        `json:"delta_inserts"`
	DeltaTombstones int        `json:"delta_tombstones"`
}

// ValidDatasetName reports whether a name is servable: 1–128 characters
// of [A-Za-z0-9._-], which keeps names filesystem- and
// metrics-label-safe.
func ValidDatasetName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// DecodeBody decodes a JSON request body of at most limit bytes into
// into, rejecting trailing data after the document.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, into any) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(into); err != nil {
		return DecodeError(err)
	}
	if dec.More() {
		return DecodeError(errors.New("request body has trailing data after the JSON document"))
	}
	return nil
}

// WriteJSON writes body as the JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // write errors mean a gone client; nothing to do
}

// WriteError writes e as the structured error body under its code's
// status. The codes that mean "try again shortly" carry Retry-After.
func WriteError(w http.ResponseWriter, e *Error) {
	switch e.Code {
	case CodeOverload, CodeBuilding, CodeTimeout:
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, e.Status(), ErrorBody{Error: *e})
}
