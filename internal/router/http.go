package router

// The router's HTTP front: the same /v1 surface touchserved exposes.
// The data plane is touchserved's own HTTP front (api.Front) over
// Router.Do, which relays the encoded frame to the ring owners, so a
// routed answer is the owner's — trace, request ID and NDJSON stream
// included. What differs is listed in README.md: the merged catalog,
// the 501 on loads and deletes, no_backend, the body cap, and NDJSON
// that starts once the owner's whole answer has arrived.

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"touch/client"
	"touch/internal/api"
	"touch/internal/promhist"
	"touch/internal/wire"
)

// front is the data plane over Router.Do, with the router's body cap.
var front = api.Front{MaxBodyBytes: 64 << 20}

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
		w.Header().Set("Content-Type", promhist.ContentType)
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
		reject(w, api.CodeNotFound, "no route for %s", path)
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
			front.Update(ctx, w, r, name, rt)
		case http.MethodPost, http.MethodDelete:
			reject(w, api.CodeNotRoutable,
				"the router does not proxy dataset loads or deletes; address the owning backends directly (owners of %q: %s)",
				name, strings.Join(rt.Owners(name), ", "))
		default:
			reject(w, api.CodeMethod, "use POST, PATCH or DELETE on /v1/datasets/{name}")
		}
	case "query":
		if r.Method != http.MethodPost {
			reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/query")
			return
		}
		front.Query(ctx, w, r, name, rt)
	case "join":
		if r.Method != http.MethodPost {
			reject(w, api.CodeMethod, "use POST on /v1/datasets/{name}/join")
			return
		}
		front.Join(ctx, w, r, name, rt)
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

// Do is the seam under the HTTP front: it relays one encoded request
// frame to the dataset's owners (see relay) and replays the answer — the
// owner's stream frames in order, then its terminal frame.
func (rt *Router) Do(ctx context.Context, op byte, payload []byte, stream func(op byte, p []byte) error) (byte, []byte, error) {
	name, err := wire.RequestDataset(payload)
	if err != nil {
		return 0, nil, api.DecodeError(err)
	}
	r, err := rt.call(ctx, string(name), op, payload)
	if err != nil {
		return 0, nil, proxiedError(err)
	}
	for _, f := range r.Stream {
		if err := stream(f.Op, f.Payload); err != nil {
			return 0, nil, err
		}
	}
	return r.Op, r.Payload, nil
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
