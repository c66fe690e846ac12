// Package server implements touchserved: a JSON-over-HTTP serving
// subsystem in front of the touch package's immutable Index. It is the
// network boundary of the repository's serving story — prebuilt
// partitioned indexes behind a catalog of named, versioned, atomically
// hot-swappable datasets, with the per-request parallelism knobs of the
// join engine exposed at the API.
//
// # Endpoints
//
//	POST   /v1/datasets/{name}        load a dataset (JSON boxes or text), build its index in the background
//	GET    /v1/datasets               catalog listing: version, status, objects, StaticBytes
//	DELETE /v1/datasets/{name}        drop a dataset
//	POST   /v1/datasets/{name}/query  range | point | knn against the serving index version
//	POST   /v1/datasets/{name}/join   intersection / ε-distance join vs inline boxes or a named dataset
//	GET    /healthz                   liveness (503 while draining)
//	GET    /metrics                   Prometheus text: request counts, in-flight, latency histograms, rejects
//
// A join request with "Accept: application/x-ndjson" streams its pairs
// as newline-delimited JSON instead of buffering them: one `[a,b]` array
// per pair in the engine's emission order, then one `{"count":N}`
// trailer object marking a complete stream. Streaming joins run in O(1)
// result memory on the server, are exempt from the MaxJoinPairs response
// cap, and stop promptly when the client disconnects (the request
// context cancels the engine); a stream that ends without the trailer
// line was truncated by cancellation. The 200 goes out with the first
// pair, so a join that fails before finding one answers with the
// buffered path's status and error body.
//
// # Hot swap
//
// Re-POSTing a name rebuilds its index in the background: readers keep
// the old version through an atomic snapshot pointer until the new one
// is ready, so a rebuild under sustained query load never produces an
// error or a mixed-version answer. Versions are monotonic per name and a
// slow stale build can never overwrite a newer one.
//
// # Admission control
//
// The server holds a fixed number of in-flight slots. A request that
// finds no slot free is rejected immediately with 429 rather than queued
// unboundedly. Each admitted request runs under a context deadline that
// is plumbed into the join engine: a join that outlives its budget gets
// 503 {"code":"timeout"}, a client that disconnects cancels the
// computation the same way, and in both cases the engine aborts
// cooperatively within a bounded number of comparisons — the admission
// slot frees as soon as the abort unwinds, never pinned behind an
// abandoned computation. Single-probe queries, whose engine calls run
// in microseconds, check the budget at the handler boundary instead of
// inside the engine. Joins whose buffered response would exceed
// MaxJoinPairs abort the same way (422 {"code":"result_too_large"})
// instead of materializing pairs that would only be thrown away.
// Request bodies are capped (413) and every error is structured JSON.
// BeginShutdown flips the server into draining: new work is rejected
// with 503 while in-flight requests complete (pair with
// http.Server.Shutdown to drain connections).
//
// The Server is an http.Handler; connection-level protection is the
// enclosing http.Server's job. Deployments must set ReadTimeout /
// ReadHeaderTimeout (as cmd/touchserved does): request bodies are
// decoded before the per-request processing budget applies, so without
// a read deadline a client trickling its body one byte at a time could
// pin an admission slot indefinitely.
package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/internal/api"
	snapstore "touch/internal/snapshot"
	"touch/internal/stats"
	"touch/internal/trace"
	"touch/internal/wire"
)

// Config tunes the serving subsystem; the zero value is production-safe.
type Config struct {
	// MaxInFlight caps concurrently admitted /v1 requests; further
	// requests are rejected with 429. Default 64.
	MaxInFlight int
	// RequestTimeout is the per-request processing budget enforced via
	// context; an expired request gets 503 {"code":"timeout"}. Joins are
	// canceled mid-flight inside the engine; single-probe queries, whose
	// engine calls run in microseconds, check the budget at the handler
	// boundary instead. Default 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger ones get 413. Default 8 MiB.
	MaxBodyBytes int64
	// Workers is the default per-join parallelism; a join request's
	// "workers" field overrides it. Default 0 (single-threaded).
	Workers int
	// MaxPendingBuilds caps index builds accepted but not yet finished.
	// Builds run in the background, outside the request-slot admission
	// layer; without this cap a client looping POST /v1/datasets could
	// queue unbounded build goroutines, each pinning its decoded
	// dataset. Further loads get 429. Default 16.
	MaxPendingBuilds int
	// MaxJoinPairs caps the pairs one buffered join response carries. A
	// join can legitimately produce up to |A|·|B| pairs — far beyond any
	// body-size cap — so the engine runs with a result limit of this
	// many + 1 pairs and aborts cooperatively the moment the cap is
	// exceeded; the request is answered 422 {"code":"result_too_large"}
	// with no wasted materialization. count_only joins and NDJSON
	// streaming joins are exempt (the first carries no pairs, the second
	// never buffers them). Default 1<<20.
	MaxJoinPairs int
	// CompactThreshold is the per-dataset pending-update count (inserts
	// plus tombstones from PATCH /v1/datasets/{name}) at which a
	// background compaction folds the delta into a fresh base index
	// version. 0 means the 4096 default; negative disables automatic
	// compaction (updates still serve, merged on every read).
	CompactThreshold int
	// DataDir, when set, makes the catalog durable: every successful
	// build persists a checksummed snapshot there before it becomes
	// visible, DELETE removes the file, and Server.Recover restores the
	// catalog from the directory at startup — no rebuilds. Empty
	// disables persistence (the pre-existing in-memory behavior).
	DataDir string
	// SlowQueryThreshold enables the forensic slow-query log: every
	// admitted request (HTTP or wire) that takes at least this long is
	// recorded — request ID, class, status, full phase span — in a
	// bounded ring served by GET /debug/slowlog and dumped on SIGUSR1 by
	// cmd/touchserved. 0 disables the log.
	SlowQueryThreshold time.Duration
	// Logger receives operational log records (snapshot persistence
	// failures, recovery progress, slow and failed requests). Default
	// discards them.
	Logger *slog.Logger
	// NodeID names this server instance in the wire hello info string
	// (as a "node/<id>" token), so routing tiers can label a backend
	// stably across address changes. Deployments that learn their
	// address only after binding the wire listener can set it late with
	// SetNodeID. Empty omits the token.
	NodeID string

	// build replaces touch.BuildIndex in tests (slow/observable builds).
	build buildFunc
	// snapFS replaces the real filesystem under DataDir in fault-injection
	// tests.
	snapFS snapstore.FS
}

func (c *Config) fillDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxPendingBuilds <= 0 {
		c.MaxPendingBuilds = 16
	}
	if c.MaxJoinPairs <= 0 {
		c.MaxJoinPairs = 1 << 20
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = touch.DefaultCompactThreshold
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// maxRequestWorkers bounds request-supplied parallelism: the engine
// allocates per-worker counters, sinks and goroutines proportional to
// the count, so an unclamped value is a one-request out-of-memory.
// Anything beyond a few times the core count only adds overhead.
var maxRequestWorkers = 4 * runtime.GOMAXPROCS(0)

func clampWorkers(w int) int {
	if w > maxRequestWorkers {
		return maxRequestWorkers
	}
	return w
}

// maxLocalCells bounds the request-supplied local-join grid resolution:
// join-time grids are sized per dimension from this value, so an
// unclamped config could demand cells³ cell bookkeeping (the paper's
// evaluated setting is 500).
const maxLocalCells = 4096

// Server is the HTTP serving subsystem. Create with New, mount as an
// http.Handler, and call BeginShutdown before http.Server.Shutdown for a
// graceful drain.
type Server struct {
	cfg      Config
	cat      *catalog
	met      *metrics
	slots    chan struct{}
	draining atomic.Bool

	// persist mirrors the catalog to Config.DataDir; nil when no data
	// dir is configured or the directory could not be opened (the error
	// is kept for Recover to report).
	persist    *persister
	persistErr error

	// wire owns the binary-protocol listeners and connections; see
	// bin.go for the per-connection serving loop.
	wire wire.Acceptor

	// slow is the bounded slow-query ring; nil when
	// Config.SlowQueryThreshold is 0.
	slow *slowLog

	// nodeID is the instance name advertised in the wire hello; atomic
	// because SetNodeID may race with connections handshaking.
	nodeID atomic.Pointer[string]

	// testHookWorker, when set, runs inside query and join handlers
	// before the engine call, under the request context — tests block it
	// to hold requests in flight or to park them past their deadline.
	testHookWorker func(context.Context)
}

// New returns a Server ready to serve; it owns no listener. With
// Config.DataDir set, call Recover before serving traffic to restore
// the catalog from disk — builds persist from the first load either
// way. A data dir that cannot be opened does not fail construction (New
// has no error return and the server can still serve in-memory); the
// error surfaces from Recover, which deployments run at startup.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		cat:   newCatalog(cfg.build),
		met:   newMetrics(),
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
	s.cat.compactAt = cfg.CompactThreshold
	if cfg.NodeID != "" {
		s.SetNodeID(cfg.NodeID)
	}
	s.wire.MaxFrame = int(cfg.MaxBodyBytes)
	s.wire.Info = s.helloInfo
	s.wire.Handle = s.serveWireConn
	if cfg.SlowQueryThreshold > 0 {
		s.slow = &slowLog{threshold: cfg.SlowQueryThreshold}
	}
	if cfg.DataDir != "" {
		fsys := cfg.snapFS
		if fsys == nil {
			fsys = snapstore.OSFS{}
		}
		store, err := snapstore.NewStore(cfg.DataDir, fsys)
		if err != nil {
			s.persistErr = err
			cfg.Logger.Error("snapshot: opening data dir failed, serving without persistence",
				"dir", cfg.DataDir, "err", err)
		} else {
			s.persist = &persister{store: store, cat: s.cat, log: cfg.Logger, written: make(map[string]int64)}
			s.cat.persist = s.persist
		}
	}
	return s
}

// SetNodeID (re)names this instance in the wire hello info string.
// Callers that derive the ID from a bound listener address set it after
// net.Listen and before ServeWire; connections already past their
// handshake keep the hello they saw. Whitespace is rewritten to "-" —
// the hello info is a space-separated token list.
func (s *Server) SetNodeID(id string) {
	id = strings.Join(strings.Fields(id), "-")
	s.nodeID.Store(&id)
}

// helloInfo is the info string of the server's wire hello: the build
// string, a "maxframe/<bytes>" token stating the frame cap this server
// enforces — so a client can refuse an over-cap request itself instead
// of losing the connection to it — plus a "node/<id>" token naming this
// instance when one is configured.
func (s *Server) helloInfo() string {
	info := fmt.Sprintf("%s maxframe/%d", BuildInfo(), s.wire.MaxFrame)
	if id := s.nodeID.Load(); id != nil && *id != "" {
		info += " node/" + *id
	}
	return info
}

// logger returns the configured operational logger (never nil).
func (s *Server) logger() *slog.Logger { return s.cfg.Logger }

// Load registers a dataset and builds its index synchronously — the
// programmatic preload path used by touchserved -load, the benchmark
// suite and the examples. HTTP loads build in the background instead.
func (s *Server) Load(name string, ds touch.Dataset, cfg touch.TOUCHConfig) (version int64, stats touch.IndexStats) {
	v, _ := s.cat.load(name, ds, cfg, true, 0) // synchronous: no backlog cap
	// The snapshot can lag v only if a concurrent load superseded this
	// one before it built; report whatever version is serving.
	if snap, _ := snapshotOf(s.cat, name); snap != nil {
		stats = snap.stats()
	}
	return v, stats
}

// BeginShutdown puts the server into draining: every new request —
// including healthz, so load balancers stop routing here — is answered
// with 503 {"code":"draining"} while admitted requests run to
// completion. Follow with http.Server.Shutdown to drain connections.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// ServeWire accepts binary-protocol connections on ln until the
// listener fails or ShutdownWire closes it (which returns nil). Run it
// on its own goroutine, one per listener.
func (s *Server) ServeWire(ln net.Listener) error { return s.wire.Serve(ln) }

// ShutdownWire drains the binary protocol: stops accepting, rejects new
// frames with a draining error, waits (bounded by ctx) for requests
// already admitted, then force-closes every connection and waits for
// their goroutines to unwind — admission slots are freed on that same
// unwind. Call BeginShutdown first when the HTTP side is draining too —
// the two are independent.
func (s *Server) ShutdownWire(ctx context.Context) error { return s.wire.Shutdown(ctx) }

// reject answers a request that never reached a handler — unknown
// route, wrong method, bad dataset name — and records it under the
// "other" class: a scanner flood answered at the routing layer must be
// visible in /metrics, not read as an idle server.
func (s *Server) reject(w http.ResponseWriter, code, format string, args ...any) {
	e := api.Errorf(code, format, args...)
	s.met.requests[classOther].Add(1)
	s.met.responses[classOther][codeIndex(e.Status())].Add(1)
	api.WriteError(w, e)
}

// ServeHTTP routes requests. Routing is by hand — seven routes — so
// unknown paths and wrong methods get the same structured JSON errors as
// everything else.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		s.handleHealthz(w, r)
	case path == "/metrics":
		s.handleMetrics(w, r)
	case path == "/version":
		s.handleVersion(w, r)
	case path == "/debug/slowlog":
		s.handleSlowlog(w, r)
	case path == "/v1/datasets":
		if r.Method != http.MethodGet {
			s.reject(w, api.CodeMethod, "use GET on /v1/datasets")
			return
		}
		s.serve(classCatalog, w, r, "", (*Server).handleList)
	case strings.HasPrefix(path, "/v1/datasets/"):
		rest := strings.TrimPrefix(path, "/v1/datasets/")
		name, action, _ := strings.Cut(rest, "/")
		if !api.ValidDatasetName(name) {
			s.reject(w, api.CodeInvalidName,
				"dataset name must be 1-128 chars of [A-Za-z0-9._-], got %q", name)
			return
		}
		switch action {
		case "":
			switch r.Method {
			case http.MethodPost:
				s.serve(classLoad, w, r, name, (*Server).handleLoad)
			case http.MethodPatch:
				s.serve(classUpdate, w, r, name, (*Server).handleUpdate)
			case http.MethodDelete:
				s.serve(classCatalog, w, r, name, (*Server).handleDelete)
			default:
				s.reject(w, api.CodeMethod, "use POST, PATCH or DELETE on /v1/datasets/{name}")
			}
		case "query":
			if r.Method != http.MethodPost {
				s.reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/query")
				return
			}
			s.serve(classQuery, w, r, name, (*Server).handleQuery)
		case "join":
			if r.Method != http.MethodPost {
				s.reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/join")
				return
			}
			s.serve(classJoin, w, r, name, (*Server).handleJoin)
		default:
			s.reject(w, api.CodeNotFound, "unknown action %q", action)
		}
	default:
		s.reject(w, api.CodeNotFound, "no route for %s", path)
	}
}

// httpRequest is one admitted-or-rejected /v1 request: the shared
// accounting state plus what the JSON codec needs. It is the
// ResponseWriter its handler answers on, recording the status for the
// metrics and forwarding Flush so the NDJSON streaming path can push
// pairs through the net/http buffer as they are produced.
type httpRequest struct {
	request
	http.ResponseWriter
	status int
	r      *http.Request
	// ctx carries the per-request processing budget, armed at admission.
	ctx context.Context
	// dataset is the {name} path element; empty on the catalog listing.
	dataset string
	// traced is the client's X-Touch-Trace opt-in.
	traced bool
}

func (h *httpRequest) WriteHeader(status int) {
	h.status = status
	h.ResponseWriter.WriteHeader(status)
}

func (h *httpRequest) Flush() {
	if f, ok := h.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// decode reads the request's JSON body (capped at MaxBodyBytes → 413)
// into into, timing it as the decode phase.
func (h *httpRequest) decode(s *Server, into any) *api.Error {
	start := time.Now()
	if e := api.DecodeBody(h, h.r, s.cfg.MaxBodyBytes, into); e != nil {
		return e
	}
	h.span.Add(trace.PhaseDecode, time.Since(start))
	return nil
}

// traceHeader is the opt-in request header: "X-Touch-Trace: 1" adds the
// span breakdown to the JSON response of a query or buffered join.
const traceHeader = "X-Touch-Trace"

// requestIDHeader carries the server-assigned request ID on every
// admitted response, so any error a client logs names a request the
// slow log and server logs can be searched for.
const requestIDHeader = "X-Touch-Request-Id"

// serve is the HTTP front door of all /v1 traffic: admission (503 during
// drain, 429 when every in-flight slot is taken), the per-request
// deadline, the handler, and the completion hook. A handler either
// writes its success response or returns the error for serve to write.
func (s *Server) serve(class int, w http.ResponseWriter, r *http.Request, dataset string,
	handler func(*Server, *httpRequest) *api.Error) {
	h := &httpRequest{ResponseWriter: w, status: http.StatusOK, r: r, dataset: dataset,
		traced: r.Header.Get(traceHeader) == "1"}
	s.arrive(&h.request, class)
	h.span.RequestID = nextRequestID()
	defer func() { s.finish(&h.request, h.status) }()

	e := s.begin(&h.request, h.start, nil)
	if e == nil {
		h.Header().Set(requestIDHeader, h.span.RequestID)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h.ctx = ctx
		e = handler(s, h)
	}
	if e != nil {
		api.WriteError(h, e)
	}
}

// --- health & metrics ---------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status        string  `json:"status"`
		Datasets      int     `json:"datasets"`
		InFlight      int64   `json:"in_flight"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	h := health{
		Status:        "ok",
		Datasets:      s.cat.size(),
		InFlight:      s.met.inFlight.Load(),
		UptimeSeconds: time.Since(s.met.start).Seconds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		api.WriteJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	api.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.cat, s.SnapshotErrors())
}

// handleVersion answers GET /version with the build description — the
// HTTP twin of the wire hello's informational field.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, api.CodeMethod, "use GET on /version")
		return
	}
	api.WriteJSON(w, http.StatusOK, VersionInfo())
}

// handleSlowlog answers GET /debug/slowlog with the recorded slow
// requests, newest first, full phase spans included. Like /metrics it
// bypasses admission — it must answer even when every slot is pinned,
// which is exactly when someone reads it.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, api.CodeMethod, "use GET on /debug/slowlog")
		return
	}
	if s.slow == nil {
		api.WriteError(w, api.Errorf(api.CodeNotFound,
			"slow-query log disabled; start touchserved with -slow-query-ms"))
		return
	}
	entries, total := s.slow.snapshot()
	out := struct {
		ThresholdMs float64         `json:"threshold_ms"`
		Recorded    int64           `json:"recorded"`
		Entries     []slowEntryJSON `json:"entries"`
	}{
		ThresholdMs: float64(s.slow.threshold) / 1e6,
		Recorded:    total,
		Entries:     make([]slowEntryJSON, len(entries)),
	}
	for i, e := range entries {
		out.Entries[i] = slowEntryToJSON(e)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// --- catalog ------------------------------------------------------------

func (s *Server) handleList(h *httpRequest) *api.Error {
	api.WriteJSON(h, http.StatusOK, struct {
		Datasets []datasetInfo `json:"datasets"`
	}{Datasets: s.cat.list()})
	return nil
}

func (s *Server) handleDelete(h *httpRequest) *api.Error {
	retired, ok := s.cat.drop(h.dataset)
	if !ok {
		return api.Errorf(api.CodeUnknownDataset, "dataset %q not loaded", h.dataset)
	}
	if s.persist != nil {
		s.persist.delete(h.dataset, retired)
	}
	api.WriteJSON(h, http.StatusOK, struct {
		Name    string `json:"name"`
		Deleted bool   `json:"deleted"`
	}{Name: h.dataset, Deleted: true})
	return nil
}

// loadRequest is the JSON body of POST /v1/datasets/{name}.
type loadRequest struct {
	// Boxes holds one [minX minY minZ maxX maxY maxZ] row per object.
	Boxes [][]float64 `json:"boxes"`
	// Config tunes the TOUCH tree built over the dataset.
	Config struct {
		Partitions int `json:"partitions"`
		Fanout     int `json:"fanout"`
		LocalCells int `json:"local_cells"`
		Workers    int `json:"workers"`
	} `json:"config"`
}

func (s *Server) handleLoad(h *httpRequest) *api.Error {
	ct := h.r.Header.Get("Content-Type")
	var (
		ds  touch.Dataset
		cfg touch.TOUCHConfig
		err error
	)
	switch {
	case strings.HasPrefix(ct, "application/json"):
		var req loadRequest
		if e := h.decode(s, &req); e != nil {
			return e
		}
		boxes, e := api.Boxes("box", req.Boxes)
		if e != nil {
			return e
		}
		if ds, err = touch.DatasetFromBoxes(boxes); err != nil {
			return api.EngineError(err)
		}
		// The engine treats fanout 1 as a programming error (the tree
		// would never converge to a root) and panics — a background
		// build panic would kill the process, so reject it here.
		if req.Config.Fanout == 1 {
			return api.Errorf(api.CodeBadRequest, "config.fanout must be 0 (default) or >= 2")
		}
		cfg = touch.TOUCHConfig{
			Partitions: req.Config.Partitions,
			Fanout:     req.Config.Fanout,
			LocalCells: min(req.Config.LocalCells, maxLocalCells),
			Workers:    clampWorkers(req.Config.Workers),
		}
	case ct == "" || strings.HasPrefix(ct, "text/"):
		if ds, err = touch.ReadDataset(http.MaxBytesReader(h, h.r.Body, s.cfg.MaxBodyBytes)); err != nil {
			return api.DecodeError(err)
		}
	default:
		return api.Errorf(api.CodeUnsupported,
			"content type %q: send application/json boxes or a text/plain dataset", ct)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = s.cfg.Workers
	}

	// Builds run in the background and outlive the request's admission
	// slot; the catalog reserves a backlog slot atomically so load
	// floods degrade into 429s too.
	version, accepted := s.cat.load(h.dataset, ds, cfg, false, s.cfg.MaxPendingBuilds)
	if !accepted {
		s.met.rejectOverload.Add(1)
		return api.Errorf(api.CodeOverload, "server at its %d-build backlog cap", s.cfg.MaxPendingBuilds)
	}
	api.WriteJSON(h, http.StatusAccepted, struct {
		Name    string `json:"name"`
		Version int64  `json:"version"`
		Status  string `json:"status"`
		Objects int    `json:"objects"`
	}{Name: h.dataset, Version: version, Status: "building", Objects: len(ds)})
	return nil
}

func (s *Server) handleUpdate(h *httpRequest) *api.Error {
	var req api.UpdateRequest
	if e := h.decode(s, &req); e != nil {
		return e
	}
	inserts, e := api.Boxes("insert", req.Insert)
	if e != nil {
		return e
	}
	res, e := s.update(h.ctx, h.dataset, inserts, req.Delete)
	if e != nil {
		return e
	}
	ids := make([]touch.ID, len(inserts))
	for i := range ids {
		ids[i] = touch.ID(res.firstID) + touch.ID(i)
	}
	api.WriteJSON(h, http.StatusOK, api.UpdateResponse{
		Name: h.dataset, Version: res.version, InsertedIDs: ids, Deleted: res.deleted,
		DeltaInserts: res.deltaIns, DeltaTombstones: res.deltaTomb,
	})
	return nil
}

// --- query --------------------------------------------------------------

// spanTrace renders a span as the X-Touch-Trace response field.
func spanTrace(sp *touch.Span) *api.Trace {
	return &api.Trace{
		RequestID:   sp.RequestID,
		PhaseNs:     spanPhaseNs(sp),
		Comparisons: sp.Comparisons,
		NodeTests:   sp.NodeTests,
		Filtered:    sp.Filtered,
		Results:     sp.Results,
		Replicas:    sp.Replicas,
		Cancel:      trace.CancelName(sp.Cancel),
	}
}

func (s *Server) handleQuery(h *httpRequest) *api.Error {
	var req api.QueryRequest
	if e := h.decode(s, &req); e != nil {
		return e
	}
	q, e := req.Query()
	if e != nil {
		return e
	}
	snap, e := resolve(s, &h.request, h.dataset)
	if e != nil {
		return e
	}
	ids, nbrs, e := s.runQuery(h.ctx, &h.request, snap, &q)
	if e != nil {
		return e
	}
	resp := api.NewQueryResponse(h.dataset, snap.version, q.Type, ids, nbrs)
	if h.traced {
		resp.Trace = spanTrace(&h.span)
	}
	api.WriteJSON(h, http.StatusOK, resp)
	return nil
}

// --- join ---------------------------------------------------------------

// ndjsonContentType is the media type selecting (and labelling) the
// streaming join response.
const ndjsonContentType = "application/x-ndjson"

// wantsNDJSON reports whether the Accept header names the NDJSON media
// type as acceptable — listed as a proper token (not a substring) and
// not explicitly refused with q=0. Full content negotiation is not
// attempted; the buffered JSON answer is the default for everything
// else.
func wantsNDJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mediaType != ndjsonContentType {
			continue
		}
		if qs, ok := params["q"]; ok {
			if q, err := strconv.ParseFloat(qs, 64); err == nil && q <= 0 {
				return false
			}
		}
		return true
	}
	return false
}

func (s *Server) handleJoin(h *httpRequest) *api.Error {
	var req api.JoinRequest
	if e := h.decode(s, &req); e != nil {
		return e
	}
	snap, e := resolve(s, &h.request, h.dataset)
	if e != nil {
		return e
	}
	inline, e := req.ProbeBoxes()
	if e != nil {
		return e
	}
	plan, e := prepareJoin(s, &h.request, snap, req.Probe, inline, req.Workers)
	if e != nil {
		return e
	}
	s.hook(h.ctx)
	if !req.CountOnly && wantsNDJSON(h.r.Header.Get("Accept")) {
		return s.streamJoin(h, plan, req.Eps)
	}

	// The buffered path runs with a result limit one past the response
	// cap: a join that would blow the cap aborts cooperatively right
	// there, instead of materializing |A|·|B| pairs to throw away.
	// count_only joins carry no pairs, so their count stays exact and
	// uncapped.
	limit := int64(0)
	if !req.CountOnly {
		limit = int64(s.cfg.MaxJoinPairs) + 1
	}
	res, e := s.join(h.ctx, &h.request, plan, req.Eps, touch.Options{NoPairs: req.CountOnly, Limit: limit})
	if e != nil {
		return e
	}
	resp := api.JoinResponse{
		Dataset: h.dataset, Version: plan.snap.version,
		Probe: req.Probe, ProbeVersion: plan.probeVersion, ProbeObjects: len(plan.probe),
		Count: res.Stats.Results,
	}
	if !req.CountOnly {
		if res.Stats.Results > int64(s.cfg.MaxJoinPairs) {
			s.met.rejectLimited.Add(1)
			return api.Errorf(api.CodeResultTooLarge,
				"join exceeds the %d-pair response cap; use count_only, the %s streaming mode, or a narrower probe",
				s.cfg.MaxJoinPairs, ndjsonContentType)
		}
		// Canonical (indexed, probe) ascending order: parallel joins
		// emit in nondeterministic order, but the wire format is
		// stable and byte-identical to a direct Index call.
		res.SortPairs()
		resp.Pairs = api.Pairs(res.Pairs)
	}
	resp.Stats = &api.JoinStats{
		Comparisons: res.Stats.Comparisons,
		NodeTests:   res.Stats.NodeTests,
		Filtered:    res.Stats.Filtered,
		MemoryBytes: res.Stats.MemoryBytes,
		AssignNs:    res.Stats.AssignTime.Nanoseconds(),
		JoinNs:      res.Stats.JoinTime.Nanoseconds(),
	}
	if h.traced {
		resp.Trace = spanTrace(&h.span)
	}
	api.WriteJSON(h, http.StatusOK, resp)
	return nil
}

// streamFlushEvery is how many NDJSON pair lines are written between
// explicit flushes at full production rate — rare enough that the
// syscall cost disappears. Slow producers are covered separately: the
// first line flushes eagerly (so the client sees the stream start) and
// a timer goroutine bounds how stale pending lines may get.
const streamFlushEvery = 4096

// streamFlushInterval caps the time pairs may sit in the stream buffer
// when the join produces them slowly or in bursts with long gaps — the
// timer fires independently of the next pair's arrival, keeping
// trickling results moving and intermediary idle-body timeouts at bay.
const streamFlushInterval = 250 * time.Millisecond

// streamJoin answers a join with Accept: application/x-ndjson by
// writing one `[a,b]` line per pair from the join's sink, on the
// handler's goroutine — O(1) server memory, no response cap — and a
// `{"count":N}` trailer line after a complete join. The 200 goes out
// with the first pair, or after a join that found none, so an error
// before then (a negative eps, a budget already spent) gets the
// buffered path's status and code. Once the 200 is out, a client
// disconnect or deadline expiry cancels the engine mid-stream; the
// truncated stream simply ends without the trailer, and the abort is
// recorded under its own reject reason.
func (s *Server) streamJoin(h *httpRequest, plan joinPlan, eps float64) *api.Error {
	bw := bufio.NewWriterSize(h, 64<<10)

	// All writer access — the status line, pair lines, count-based
	// flushes and the timer goroutine's staleness flushes — runs under
	// one mutex: the ResponseWriter is not safe for concurrent use. The
	// per-pair lock is uncontended except at the 4 Hz the timer fires.
	var mu sync.Mutex
	n := int64(0)
	dirty := false
	// Write errors are dropped: they mean the client is gone, and its
	// request context cancels the engine.
	flushLocked := func() {
		_ = bw.Flush()
		h.Flush()
		dirty = false
	}
	startLocked := func() {
		h.Header().Set("Content-Type", ndjsonContentType)
		h.WriteHeader(http.StatusOK)
	}
	stopTimer := make(chan struct{})
	timerDone := make(chan struct{})
	go func() {
		defer close(timerDone)
		t := time.NewTicker(streamFlushInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mu.Lock()
				if dirty {
					flushLocked()
				}
				mu.Unlock()
			case <-stopTimer:
				return
			}
		}
	}()
	// The timer goroutine must be gone before the handler returns — a
	// flush racing the handler's exit would write a dead ResponseWriter.
	defer func() {
		close(stopTimer)
		<-timerDone
	}()

	sink := stats.FuncSink(func(a, b touch.ID) {
		mu.Lock()
		if n == 0 {
			startLocked()
		}
		fmt.Fprintf(bw, "[%d,%d]\n", a, b)
		dirty = true
		if n++; n == 1 || n%streamFlushEvery == 0 {
			flushLocked()
		}
		mu.Unlock()
	})
	_, e := s.join(h.ctx, &h.request, plan, eps, touch.Options{Sink: sink})
	// The join has returned, so the sink is done: the lock now only keeps
	// the timer out.
	mu.Lock()
	defer mu.Unlock()
	if e != nil {
		if n == 0 {
			return e
		}
		// Mid-stream failure: the 200 is already on the wire, so the
		// truncation is the signal — plus, for cancellations, the reject
		// metric joinError recorded.
	} else {
		if n == 0 {
			startLocked()
		}
		fmt.Fprintf(bw, "{\"count\":%d}\n", n)
	}
	_ = bw.Flush()
	return nil
}
