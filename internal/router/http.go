package router

// The router's HTTP front: the same /v1 surface touchserved exposes,
// answered by proxying over the binary wire protocol to the ring
// owners. Requests are decoded and answers rendered with the
// internal/api shapes, decoder and error table the backends themselves
// use, so for range/point/knn — and for every request the router can
// refuse without a backend — a client cannot tell a router answer from a
// direct backend answer byte-for-byte. Deliberate differences,
// documented in README.md:
//
//   - Joins carry no "stats" object, no trace and no "probe_version":
//     the wire protocol does not stream the engine's join statistics or
//     the named probe's version.
//   - GET /v1/datasets is the merged, provenance-annotated catalog —
//     a router-specific shape, not one backend's listing.
//   - Loads and deletes are not routed: dataset placement is by name,
//     but load bodies are huge and replication policy (load to every
//     owner) belongs to the operator's loader, not a blind proxy.

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"touch"
	"touch/client"
	"touch/internal/api"
)

// maxBodyBytes caps proxied request bodies (queries, joins, updates).
const maxBodyBytes = 64 << 20

// proxiedError maps a forwarding failure onto the error vocabulary for
// either front: backend answers keep their own code (and, over HTTP,
// the status the backend's own HTTP front would have used),
// connection-level exhaustion becomes no_backend, context expiry the
// usual timeout / client_closed pair.
func proxiedError(err error) *api.Error {
	var se *client.ServerError
	switch {
	case errors.As(err, &se):
		return &api.Error{Code: se.Code, Message: se.Message}
	case IsNoBackend(err):
	case errors.Is(err, context.DeadlineExceeded):
		return api.Errorf(api.CodeTimeout, "request exceeded the router's processing budget")
	case errors.Is(err, context.Canceled):
		return api.Errorf(api.CodeClientClosed, "request canceled by client")
	}
	return api.Errorf(api.CodeNoBackend, "%v", err)
}

// reject answers a request that is refused at the routing layer.
func reject(w http.ResponseWriter, code, format string, args ...any) {
	api.WriteError(w, api.Errorf(code, format, args...))
}

// ServeHTTP is the router's HTTP surface: /healthz, /metrics, and the
// proxied /v1/datasets routes.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch path {
	case "/healthz":
		rt.handleHealthz(w)
		return
	case "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.RenderMetrics(w)
		return
	case "/v1/datasets":
		if r.Method != http.MethodGet {
			reject(w, api.CodeMethod, "use GET on /v1/datasets")
			return
		}
		rt.handleCatalog(w, r)
		return
	}
	rest, ok := strings.CutPrefix(path, "/v1/datasets/")
	if !ok {
		reject(w, api.CodeNotFound, "unknown route %q", path)
		return
	}
	name, action, _ := strings.Cut(rest, "/")
	if !api.ValidDatasetName(name) {
		reject(w, api.CodeInvalidName,
			"dataset name must be 1-128 chars of [A-Za-z0-9._-], got %q", name)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	switch action {
	case "":
		switch r.Method {
		case http.MethodPatch:
			rt.proxy(ctx, w, r, name, (*Router).handleUpdate)
		case http.MethodPost, http.MethodDelete:
			reject(w, api.CodeNotRoutable,
				"the router does not proxy dataset loads or deletes; address the owning backends directly (owners of %q: %s)",
				name, strings.Join(rt.Owners(name), ", "))
		default:
			reject(w, api.CodeMethod, "use PATCH on /v1/datasets/{name}")
		}
	case "query":
		if r.Method != http.MethodPost {
			reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/query")
			return
		}
		rt.proxy(ctx, w, r, name, (*Router).handleQuery)
	case "join":
		if r.Method != http.MethodPost {
			reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/join")
			return
		}
		rt.proxy(ctx, w, r, name, (*Router).handleJoin)
	default:
		reject(w, api.CodeNotFound, "unknown action %q", action)
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter) {
	healthy := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		// A router with zero live backends cannot serve anything; tell
		// the load balancer to stop sending traffic here.
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, struct {
		Status   string `json:"status"`
		Backends int    `json:"backends"`
		Healthy  int    `json:"healthy"`
	}{Status: map[bool]string{true: "ok", false: "no_backends"}[healthy > 0], Backends: len(rt.backends), Healthy: healthy})
}

// --- query, join, update ----------------------------------------------------

// proxy runs one proxied handler and writes its answer: the response
// under 200, or the error.
func (rt *Router) proxy(ctx context.Context, w http.ResponseWriter, r *http.Request, name string,
	handler func(*Router, context.Context, http.ResponseWriter, *http.Request, string) (any, *api.Error)) {
	resp, e := handler(rt, ctx, w, r, name)
	if e != nil {
		api.WriteError(w, e)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleQuery(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) (any, *api.Error) {
	var req api.QueryRequest
	if e := api.DecodeBody(w, r, maxBodyBytes, &req); e != nil {
		return nil, e
	}
	q, e := req.Query()
	if e != nil {
		return nil, e
	}
	var (
		version int64
		ids     []touch.ID
		nbrs    []touch.Neighbor
		err     error
	)
	switch q.Type {
	case api.TypeRange:
		version, ids, err = rt.Range(ctx, name, q.Box)
	case api.TypePoint:
		version, ids, err = rt.Point(ctx, name, q.Point)
	default:
		version, nbrs, err = rt.KNN(ctx, name, q.Point, q.K)
	}
	if err != nil {
		return nil, proxiedError(err)
	}
	return api.NewQueryResponse(name, version, q.Type, ids, nbrs), nil
}

func (rt *Router) handleJoin(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) (any, *api.Error) {
	var req api.JoinRequest
	if e := api.DecodeBody(w, r, maxBodyBytes, &req); e != nil {
		return nil, e
	}
	boxes, e := req.ProbeBoxes()
	if e != nil {
		return nil, e
	}
	spec := client.JoinSpec{Probe: req.Probe, Boxes: boxes, Eps: req.Eps, Workers: req.Workers}
	resp := api.JoinResponse{Dataset: name, Probe: req.Probe, ProbeObjects: len(boxes)}
	var err error
	if req.CountOnly {
		resp.Version, resp.Count, err = rt.JoinCount(ctx, name, spec)
	} else {
		var pairs []touch.Pair
		resp.Version, pairs, resp.Count, err = rt.Join(ctx, name, spec)
		resp.Pairs = api.Pairs(pairs)
	}
	if err != nil {
		return nil, proxiedError(err)
	}
	return resp, nil
}

func (rt *Router) handleUpdate(ctx context.Context, w http.ResponseWriter, r *http.Request, name string) (any, *api.Error) {
	var req api.UpdateRequest
	if e := api.DecodeBody(w, r, maxBodyBytes, &req); e != nil {
		return nil, e
	}
	inserts, e := api.Boxes("insert", req.Insert)
	if e != nil {
		return nil, e
	}
	res, err := rt.Update(ctx, name, client.UpdateSpec{Insert: inserts, Delete: req.Delete})
	if err != nil {
		return nil, proxiedError(err)
	}
	return api.UpdateResponse{
		Name: name, Version: res.Version, InsertedIDs: res.InsertedIDs, Deleted: res.Deleted,
		DeltaInserts: res.DeltaInserts, DeltaTombstones: res.DeltaTombstones,
	}, nil
}

// --- catalog --------------------------------------------------------------

type failedBackendJSON struct {
	Backend string `json:"backend"`
	Error   string `json:"error"`
}

// handleCatalog answers GET /v1/datasets with the merged fleet catalog.
// Partial failure is first-class: rows from reachable backends are
// served, unreachable backends are named in failed_backends, and the
// "partial" flag says whether the listing may be incomplete.
func (rt *Router) handleCatalog(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	rows, failures := rt.Catalog(ctx)
	out := struct {
		Datasets       []CatalogRow        `json:"datasets"`
		Partial        bool                `json:"partial"`
		FailedBackends []failedBackendJSON `json:"failed_backends,omitempty"`
	}{Datasets: rows, Partial: len(failures) > 0}
	for _, f := range failures {
		out.FailedBackends = append(out.FailedBackends, failedBackendJSON{Backend: f.Backend, Error: f.Err.Error()})
	}
	api.WriteJSON(w, http.StatusOK, out)
}
