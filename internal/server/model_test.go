package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/testutil"
)

// The model test replays seeded histories of one dataset's life —
// Load, PATCH, fold, DELETE, re-POST, kill + Recover — through both
// fronts of one server on one data directory, against an in-memory
// oracle, and checks after every step that
//
//   - (i) every read, on HTTP and on the wire, equals the oracle: the
//     whole dataset, two range queries, a kNN and a join, and the version
//     they answer from;
//   - (ii) the version each client (the HTTP one and the wire one) sees
//     never goes backwards, across kills too;
//   - (iii) an update acknowledged before a kill is visible after Recover.
//
// The oracle is a chain of immutable touch.Overlay values stepped by the
// same batches (Overlay.Apply), never folded, so its answers are the
// merged dataset's whatever the server's tiers look like. Every step
// waits for what it started — a background build, the fold an update
// armed — by polling the published state, so no premise depends on the
// scheduler.

// modelThreshold is the fold seam's setting in the model test: a tail of
// this many inserts plus tombstones folds into a new version.
const modelThreshold = 24

type modelKind int

const (
	stepLoad   modelKind = iota // Server.Load, synchronous
	stepPatch                   // one update batch
	stepFold                    // an update that takes the tail to the threshold, then its fold
	stepDelete                  // DELETE /v1/datasets/d
	stepPost                    // re-POST /v1/datasets/d, built in the background
	stepKill                    // drop the server without shutdown; a new one recovers the data dir
)

// modelStep is one step of a history, concrete enough to replay alone.
type modelStep struct {
	kind    modelKind
	wire    bool // the update goes through the wire front
	inserts []touch.Box
	deletes []touch.ID
	ds      touch.Dataset // stepLoad's and stepPost's dataset
}

func (s modelStep) String() string {
	front := "http"
	if s.wire {
		front = "wire"
	}
	switch s.kind {
	case stepLoad:
		return fmt.Sprintf("load %d objects", len(s.ds))
	case stepPatch:
		return fmt.Sprintf("patch %s +%d -%v", front, len(s.inserts), s.deletes)
	case stepFold:
		return fmt.Sprintf("fold %s +%d", front, len(s.inserts))
	case stepDelete:
		return "delete"
	case stepPost:
		return fmt.Sprintf("post %d objects", len(s.ds))
	default:
		return "kill"
	}
}

// model is the oracle: what the server must hold after each step.
type model struct {
	ov      *touch.Overlay // the dataset; nil while it is deleted
	durable *touch.Overlay // what the data dir holds: the last build or fold
	version int64
	tail    int // inserts + tombstones since the last fold or build
	folds   int // folds published
	lost    int // acknowledged updates a kill has dropped

	acked    []touch.ID        // IDs acknowledged to inserts the tail holds
	dropped  map[touch.ID]bool // IDs acknowledged to inserts a kill dropped
	reissued int               // dropped IDs a later ack gave to a new object
}

type modelRow struct {
	name  string
	seed  int64
	steps int
	// killLoses lets a kill meet acknowledged updates that no fold has
	// persisted, and pins what a restart does with them today (ROADMAP
	// item 3, the missing write-ahead log): it loses them, and it gives
	// the IDs acknowledged to the lost inserts again to the next inserts,
	// so a client holding such an ID finds a different object under it.
	// Rows without it kill only after the tail has folded, where (iii)
	// holds. The log flips this row: (iii) for every kill, no ID reissued.
	killLoses bool
}

var modelRows = []modelRow{
	{name: "seed-1", seed: 1, steps: 90},
	{name: "seed-7", seed: 7, steps: 90},
	{name: "seed-42", seed: 42, steps: 90},
	{name: "item3-kill-loses-acked-updates", seed: 3, steps: 60, killLoses: true},
}

// TestServerModel replays every row's history and, on a failure, the
// shortest prefix of it that fails.
func TestServerModel(t *testing.T) {
	for _, row := range modelRows {
		t.Run(row.name, func(t *testing.T) {
			steps, m, err := replayModel(t, row, nil)
			if err != nil {
				prefix := shortestFailingPrefix(t, row, steps)
				lines := make([]string, len(prefix))
				for i, s := range prefix {
					lines[i] = fmt.Sprintf("  %3d  %v", i, s)
				}
				t.Fatalf("%v\nshortest failing prefix, %d of %d steps:\n%s",
					err, len(prefix), len(steps), strings.Join(lines, "\n"))
			}
			if row.killLoses && (m.lost == 0 || m.reissued == 0) {
				t.Fatalf("%d acknowledged updates lost, %d IDs reissued: the row pins less than its name; pick a seed whose history does both",
					m.lost, m.reissued)
			}
			var kinds [stepKill + 1]int
			for _, s := range steps {
				kinds[s.kind]++
			}
			t.Logf("%d steps: %d loads, %d patches, %d fold steps, %d deletes, %d posts, %d kills; %d folds published, version %d, %d acknowledged updates lost, %d IDs reissued",
				len(steps), kinds[stepLoad], kinds[stepPatch], kinds[stepFold], kinds[stepDelete], kinds[stepPost], kinds[stepKill],
				m.folds, m.version, m.lost, m.reissued)
		})
	}
}

// shortestFailingPrefix binary-searches the shortest prefix of a failed
// history that still fails, replaying each candidate on a fresh server
// and data dir.
func shortestFailingPrefix(t *testing.T, row modelRow, steps []modelStep) []modelStep {
	lo, hi := 1, len(steps)
	for lo < hi {
		mid := (lo + hi) / 2
		if _, _, err := replayModel(t, row, steps[:mid]); err != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return steps[:hi]
}

// replayModel runs a history: the given steps, or — when steps is nil —
// row.steps steps drawn from its seed. It returns the steps run, up to
// and including the first that failed.
func replayModel(t *testing.T, row modelRow, steps []modelStep) ([]modelStep, *model, error) {
	h := &modelServer{dir: t.TempDir()}
	if err := h.start(); err != nil {
		return nil, nil, err
	}
	defer h.kill()
	m := &model{}
	g := modelGen{rng: rand.New(rand.NewSource(row.seed)), killLoses: row.killLoses}
	n := len(steps)
	if steps == nil {
		n = row.steps
	}
	for i := 0; i < n; i++ {
		if i == len(steps) {
			steps = append(steps, g.next(m, i))
		}
		err := h.step(m, steps[i], row.killLoses)
		if err == nil {
			err = h.check(m, row.seed*1000+int64(i))
		}
		if err != nil {
			return steps[:i+1], m, fmt.Errorf("step %d (%v): %w", i, steps[i], err)
		}
	}
	return steps, m, nil
}

// modelGen draws a history's steps from its seed and the oracle's state.
type modelGen struct {
	rng       *rand.Rand
	killLoses bool
	killNext  bool // a kill was drawn over an unfolded tail: fold first, kill next
}

func (g *modelGen) next(m *model, i int) modelStep {
	rng := g.rng
	wire := rng.Intn(2) == 0
	if i == 0 {
		return modelStep{kind: stepLoad, ds: g.dataset()}
	}
	if g.killNext {
		g.killNext = false
		return modelStep{kind: stepKill}
	}
	if m.ov == nil {
		switch r := rng.Intn(10); {
		case r < 5:
			return modelStep{kind: stepPost, ds: g.dataset()}
		case r < 6:
			return modelStep{kind: stepLoad, ds: g.dataset()}
		case r < 8:
			return modelStep{kind: stepKill}
		case r < 9:
			return modelStep{kind: stepPatch, wire: wire, inserts: g.boxes(2)}
		default:
			return modelStep{kind: stepDelete}
		}
	}
	fold := modelStep{kind: stepFold, wire: wire, inserts: g.boxes(modelThreshold - m.tail)}
	switch r := rng.Intn(100); {
	case r < 56:
		// An empty batch is a bad request: at least one insert or delete.
		s := modelStep{kind: stepPatch, wire: wire, deletes: g.deletes(m)}
		n := rng.Intn(6)
		if n == 0 && len(s.deletes) == 0 {
			n = 1
		}
		s.inserts = g.boxes(n)
		return s
	case r < 68:
		return fold
	case r < 74:
		return modelStep{kind: stepDelete}
	case r < 80:
		return modelStep{kind: stepPost, ds: g.dataset()}
	case r < 84:
		return modelStep{kind: stepLoad, ds: g.dataset()}
	default:
		if m.tail > 0 && !g.killLoses {
			g.killNext = true
			return fold
		}
		return modelStep{kind: stepKill}
	}
}

func (g *modelGen) boxes(n int) []touch.Box {
	boxes := make([]touch.Box, n)
	for i := range boxes {
		var lo, hi touch.Point
		for d := range lo {
			lo[d] = g.rng.Float64() * 1000
			hi[d] = lo[d] + g.rng.Float64()*40
		}
		boxes[i] = touch.NewBox(lo, hi)
	}
	return boxes
}

func (g *modelGen) dataset() touch.Dataset {
	ds, err := touch.DatasetFromBoxes(g.boxes(200 + g.rng.Intn(200)))
	if err != nil {
		panic(err)
	}
	return ds
}

// deletes draws up to four IDs: mostly live objects, now and then one
// already deleted or never issued, which the server skips.
func (g *modelGen) deletes(m *model) []touch.ID {
	live := m.ov.Dataset()
	var ids []touch.ID
	for n := g.rng.Intn(5); len(ids) < n; {
		if g.rng.Intn(6) == 0 || len(live) == 0 {
			ids = append(ids, touch.ID(g.rng.Intn(1000)))
		} else {
			ids = append(ids, live[g.rng.Intn(len(live))].ID)
		}
	}
	return ids
}

// modelServer is the server under test, its two fronts and the two
// clients' highest versions seen.
type modelServer struct {
	dir  string
	srv  *Server
	hs   *httptest.Server
	ln   net.Listener
	conn *client.Conn
	seen [2]int64 // HTTP, wire
}

const modelName = "d"

// start builds a server on the data dir and recovers it.
func (h *modelServer) start() error {
	h.srv = New(Config{DataDir: h.dir, compactThreshold: modelThreshold})
	if _, err := h.srv.Recover(); err != nil {
		return fmt.Errorf("Recover: %w", err)
	}
	h.hs = httptest.NewServer(h.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.ln = ln
	go h.srv.ServeWire(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.conn, err = client.Dial(ctx, ln.Addr().String())
	return err
}

// kill drops the server with no shutdown: no drain, no final write.
// Every step has waited for the builds and folds it started, so nothing
// of the old server writes to the data dir after this.
func (h *modelServer) kill() {
	if h.conn != nil {
		h.conn.Close()
	}
	h.ln.Close()
	h.hs.Close()
}

func (h *modelServer) step(m *model, s modelStep, killLoses bool) error {
	switch s.kind {
	case stepLoad:
		v, _ := h.srv.Load(modelName, s.ds, touch.TOUCHConfig{})
		return h.built(m, v, s.ds)
	case stepPost:
		var ack struct {
			Version int64 `json:"version"`
		}
		req := loadRequest{Boxes: boxRows(s.ds)}
		if status, code, err := h.http(http.MethodPost, "/v1/datasets/"+modelName, req, &ack); err != nil || status != http.StatusAccepted {
			return fmt.Errorf("post: status %d %s %v", status, code, err)
		}
		if err := h.waitVersion(ack.Version); err != nil {
			return err
		}
		return h.built(m, ack.Version, s.ds)
	case stepDelete:
		status, code, err := h.http(http.MethodDelete, "/v1/datasets/"+modelName, nil, nil)
		if err != nil {
			return err
		}
		if m.ov == nil {
			if code != api.CodeUnknownDataset {
				return fmt.Errorf("delete of a deleted dataset: status %d %q", status, code)
			}
			return nil
		}
		if status != http.StatusOK {
			return fmt.Errorf("delete: status %d %q", status, code)
		}
		m.ov, m.durable, m.tail, m.acked, m.dropped = nil, nil, 0, nil, nil
		return nil
	case stepKill:
		h.kill()
		if err := h.start(); err != nil {
			return err
		}
		// (iii): m.ov holds every acknowledged update, and the reads after
		// this step hold the recovered server to it.
		if m.tail > 0 {
			if !killLoses {
				return fmt.Errorf("the history killed over %d unfolded updates", m.tail)
			}
			// Today's loss: acknowledged updates live only in memory until
			// a fold persists them, so the restart serves the last file,
			// and its ID counter issues the lost inserts' IDs again.
			m.lost += m.tail
			if m.dropped == nil {
				m.dropped = map[touch.ID]bool{}
			}
			for _, id := range m.acked {
				m.dropped[id] = true
			}
			m.ov, m.tail, m.acked = m.durable, 0, nil
		}
		return nil
	default:
		return h.update(m, s)
	}
}

// built records a version a load or re-POST published: the oracle's new
// base, durable as soon as it serves.
func (h *modelServer) built(m *model, v int64, ds touch.Dataset) error {
	if v != m.version+1 {
		return fmt.Errorf("the load was given version %d, want %d", v, m.version+1)
	}
	m.ov = touch.BuildIndex(ds, touch.TOUCHConfig{})
	m.durable, m.version, m.tail, m.acked, m.dropped = m.ov, v, 0, nil, nil
	return nil
}

// update sends one batch through the step's front, checks the ack
// against the oracle and, when the tail reached the threshold, waits for
// the fold the server then owes.
func (h *modelServer) update(m *model, s modelStep) error {
	var (
		ack  api.UpdateResponse
		code string
		err  error
	)
	if s.wire {
		var r client.UpdateResult
		r, err = wireUpdate(context.Background(), h.conn, client.Update(modelName, client.UpdateSpec{Insert: s.inserts, Delete: s.deletes}))
		var se *client.ServerError
		if errors.As(err, &se) {
			code, err = se.Code, nil
		}
		ack = api.UpdateResponse{Version: r.Version, InsertedIDs: r.InsertedIDs, Deleted: r.Deleted,
			DeltaInserts: r.DeltaInserts, DeltaTombstones: r.DeltaTombstones}
	} else {
		req := api.UpdateRequest{Insert: rowsOf(s.inserts), Delete: s.deletes}
		_, code, err = h.http(http.MethodPatch, "/v1/datasets/"+modelName, req, &ack)
	}
	if err != nil {
		return err
	}
	if m.ov == nil {
		if code != api.CodeUnknownDataset {
			return fmt.Errorf("update of a deleted dataset answered %q", code)
		}
		return nil
	}
	if code != "" {
		return fmt.Errorf("update: %s", code)
	}
	next, first, deleted, ok := m.ov.Apply(s.inserts, s.deletes)
	if !ok {
		return errors.New("the oracle ran out of IDs")
	}
	m.ov, m.tail = next, m.tail+len(s.inserts)+deleted
	var want []touch.ID
	for i := range s.inserts {
		want = append(want, first+touch.ID(i))
	}
	if ack.Version != m.version || !slices.Equal(ack.InsertedIDs, want) || ack.Deleted != deleted ||
		ack.DeltaInserts+ack.DeltaTombstones != m.tail {
		return fmt.Errorf("ack version %d, IDs %v, %d deleted, tail %d+%d; want %d, %v, %d, tail %d",
			ack.Version, ack.InsertedIDs, ack.Deleted, ack.DeltaInserts, ack.DeltaTombstones,
			m.version, want, deleted, m.tail)
	}
	for _, id := range want {
		if m.dropped[id] {
			m.reissued++
			delete(m.dropped, id)
		}
	}
	m.acked = append(m.acked, want...)
	if m.tail < modelThreshold {
		return nil
	}
	if err := h.waitVersion(m.version + 1); err != nil {
		return err
	}
	m.version, m.tail, m.durable, m.acked = m.version+1, 0, m.ov, nil
	m.folds++
	return nil
}

// waitVersion polls until the dataset serves version v with nothing
// left to fold — the handshake with a background build or fold.
func (h *modelServer) waitVersion(v int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if snap, _ := snapshotOf(h.srv.cat, modelName); snap != nil && snap.version >= v && snap.pending() < modelThreshold {
			if snap.version > v {
				return fmt.Errorf("waiting for version %d, the server published %d", v, snap.version)
			}
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("version %d never published", v)
}

// check asks the server, on both fronts, for the whole dataset, two
// range queries, a kNN and a join, and compares every answer and its
// version with the oracle's.
func (h *modelServer) check(m *model, seed int64) error {
	ctx := context.Background()
	boxes, points, ks := testutil.QueryWorkload(seed, 2)
	boxes = append(boxes, touch.NewBox(touch.Point{-1, -1, -1}, touch.Point{2000, 2000, 2000}))
	if m.ov == nil {
		status, code, err := h.http(http.MethodPost, "/v1/datasets/"+modelName+"/query",
			api.QueryRequest{Type: "range", Box: boxRow(boxes[0])}, nil)
		if err != nil || code != api.CodeUnknownDataset {
			return fmt.Errorf("HTTP read of a deleted dataset: status %d %q, %v", status, code, err)
		}
		_, _, err = wireIDs(ctx, h.conn, client.Range(modelName, boxes[0]))
		if se := (*client.ServerError)(nil); !errors.As(err, &se) || se.Code != api.CodeUnknownDataset {
			return fmt.Errorf("wire read of a deleted dataset: %v", err)
		}
		return nil
	}
	for i, q := range boxes {
		want, err := m.ov.RangeQuery(q)
		if err != nil {
			return err
		}
		var resp api.QueryResponse
		if _, code, err := h.http(http.MethodPost, "/v1/datasets/"+modelName+"/query",
			api.QueryRequest{Type: "range", Box: boxRow(q)}, &resp); err != nil || code != "" {
			return fmt.Errorf("HTTP range %d: %q, %v", i, code, err)
		}
		if err := h.observe(m, 0, resp.Version); err != nil {
			return err
		}
		if !slices.Equal(resp.IDs, want) {
			return fmt.Errorf("HTTP range %d: %d IDs, the oracle %d", i, len(resp.IDs), len(want))
		}
		v, got, err := wireIDs(ctx, h.conn, client.Range(modelName, q))
		if err != nil {
			return fmt.Errorf("wire range %d: %w", i, err)
		}
		if err := h.observe(m, 1, v); err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("wire range %d: %d IDs, the oracle %d", i, len(got), len(want))
		}
	}

	want, err := m.ov.KNN(points[0], ks[0])
	if err != nil {
		return err
	}
	var resp api.QueryResponse
	if _, code, err := h.http(http.MethodPost, "/v1/datasets/"+modelName+"/query",
		api.QueryRequest{Type: "knn", Point: points[0][:], K: ks[0]}, &resp); err != nil || code != "" {
		return fmt.Errorf("HTTP kNN: %q, %v", code, err)
	}
	if err := h.observe(m, 0, resp.Version); err != nil {
		return err
	}
	v, got, err := wireNeighbors(ctx, h.conn, client.KNN(modelName, points[0], ks[0]))
	if err != nil {
		return fmt.Errorf("wire kNN: %w", err)
	}
	if err := h.observe(m, 1, v); err != nil {
		return err
	}
	if len(resp.Neighbors) != len(want) || len(got) != len(want) {
		return fmt.Errorf("kNN: HTTP %d and wire %d neighbors, the oracle %d", len(resp.Neighbors), len(got), len(want))
	}
	for i, n := range want {
		if resp.Neighbors[i] != (api.Neighbor{ID: n.ID, Distance: n.Distance}) || got[i] != n {
			return fmt.Errorf("kNN neighbor %d: HTTP %v, wire %v, the oracle %v", i, resp.Neighbors[i], got[i], n)
		}
	}

	probe := touch.GenerateUniform(12, seed)
	res, err := m.ov.Join(ctx, probe, &touch.Options{Eps: 3})
	if err != nil {
		return err
	}
	res.SortPairs()
	var jr api.JoinResponse
	if _, code, err := h.http(http.MethodPost, "/v1/datasets/"+modelName+"/join",
		api.JoinRequest{Boxes: boxRows(probe), Eps: 3}, &jr); err != nil || code != "" {
		return fmt.Errorf("HTTP join: %q, %v", code, err)
	}
	if err := h.observe(m, 0, jr.Version); err != nil {
		return err
	}
	v, pairs, _, err := wireJoin(ctx, h.conn, client.Join(modelName, client.JoinSpec{Boxes: probeBoxes(probe), Eps: 3}))
	if err != nil {
		return fmt.Errorf("wire join: %w", err)
	}
	if err := h.observe(m, 1, v); err != nil {
		return err
	}
	if len(jr.Pairs) != len(res.Pairs) || !slices.Equal(pairs, res.Pairs) {
		return fmt.Errorf("join: HTTP %d and wire %d pairs, the oracle %d", len(jr.Pairs), len(pairs), len(res.Pairs))
	}
	for i, p := range res.Pairs {
		if jr.Pairs[i] != [2]touch.ID{p.A, p.B} {
			return fmt.Errorf("HTTP join pair %d: %v, the oracle %v", i, jr.Pairs[i], p)
		}
	}
	return nil
}

func probeBoxes(ds touch.Dataset) []touch.Box {
	boxes := make([]touch.Box, len(ds))
	for i, o := range ds {
		boxes[i] = o.Box
	}
	return boxes
}

// observe checks the version one client read from: the oracle's (i),
// and never below what that client saw before (ii).
func (h *modelServer) observe(m *model, front int, v int64) error {
	who := [2]string{"the HTTP client", "the wire client"}[front]
	if v < h.seen[front] {
		return fmt.Errorf("(ii) %s read version %d after version %d", who, v, h.seen[front])
	}
	h.seen[front] = v
	if v != m.version {
		return fmt.Errorf("(i) %s read version %d, the oracle holds %d", who, v, m.version)
	}
	return nil
}

// http sends one request to the HTTP front and decodes a 2xx body into
// out; code is the structured error code of any other status.
func (h *modelServer) http(method, path string, body, out any) (status int, code string, err error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, "", err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, h.hs.URL+path, rd)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hs.Client().Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode >= 300 {
		var eb api.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			return resp.StatusCode, "", fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return resp.StatusCode, eb.Error.Code, nil
	}
	if out != nil {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, "", err
}
