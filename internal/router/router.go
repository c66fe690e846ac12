package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"touch"
	"touch/client"
	"touch/internal/api"
	"touch/internal/promhist"
	"touch/internal/wire"
)

// Config tunes a Router. Backends is the only required field.
type Config struct {
	// Backends are the wire-protocol addresses of the touchserved
	// replicas. The ring is keyed by these strings, so every router
	// given the same list computes the same placement.
	Backends []string
	// Replication is R: how many distinct owners each dataset name has
	// (a primary plus R-1 fallbacks). Clamped to [1, len(Backends)].
	// Default 2.
	Replication int
	// VNodes is the virtual-node count per backend on the ring.
	// Default DefaultVNodes.
	VNodes int
	// PoolSize is the number of multiplexed wire connections kept per
	// backend. Default 4.
	PoolSize int
	// HealthInterval is the probe cadence of the background health
	// checker. Default 2s.
	HealthInterval time.Duration
	// RequestTimeout is the per-request budget the HTTP and wire fronts
	// apply when the caller brought no deadline of its own. Default 10s.
	RequestTimeout time.Duration
	// Logger receives ejection/reinstatement and slow-path records.
	// Default discards them.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if len(c.Backends) > 0 && c.Replication > len(c.Backends) {
		c.Replication = len(c.Backends)
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// backend is one touchserved replica: its connection pool, health state
// and per-backend metrics.
type backend struct {
	addr string
	pool *client.Pool

	// id is the node ID the backend advertised in its wire hello,
	// learned at the first successful probe; addr until then.
	id atomic.Pointer[string]

	healthy atomic.Bool

	// mu guards the reinstatement backoff of an ejected backend.
	mu        sync.Mutex
	backoff   time.Duration
	nextProbe time.Time

	requests atomic.Int64
	errs     atomic.Int64
	latency  promhist.Histogram
}

// ID returns the backend's display name: its advertised node ID when
// known, its configured address otherwise.
func (b *backend) ID() string {
	if id := b.id.Load(); id != nil && *id != "" {
		return *id
	}
	return b.addr
}

// Router fans requests out to touchserved replicas; see the package
// comment for the placement and failover contract. Construct with New,
// then Start the health checker; Close tears everything down.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend // keyed by configured address
	met      routerMetrics

	stop chan struct{}
	done chan struct{}
	// wire owns the wire front's listeners and connections; see
	// wirefront.go for the per-connection forwarding loop.
	wire wire.Acceptor

	closeOnce sync.Once
}

// New builds a Router over cfg.Backends. Nothing is dialed yet; Start
// runs the first health sweep and begins probing.
func New(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(cfg.Backends, cfg.VNodes),
		backends: make(map[string]*backend, len(cfg.Backends)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	rt.met.start = time.Now()
	for _, addr := range rt.ring.Nodes() {
		rt.backends[addr] = &backend{addr: addr, pool: client.NewPool(addr, cfg.PoolSize)}
	}
	rt.wire.MaxFrame = wireMaxFrame
	rt.wire.Handle = rt.serveWireConn
	return rt, nil
}

// Owners returns the dataset's R ring owners (display IDs), primary
// first — exposed so tools and tests can reason about placement.
func (rt *Router) Owners(dataset string) []string {
	addrs := rt.ring.Owners(dataset, rt.cfg.Replication)
	ids := make([]string, len(addrs))
	for i, a := range addrs {
		ids[i] = rt.backends[a].ID()
	}
	return ids
}

// owners resolves the dataset's owner backends, primary first.
func (rt *Router) owners(dataset string) []*backend {
	addrs := rt.ring.Owners(dataset, rt.cfg.Replication)
	owners := make([]*backend, len(addrs))
	for i, a := range addrs {
		owners[i] = rt.backends[a]
	}
	return owners
}

// errNoBackend is the terminal failure of a read whose every owner was
// unreachable; callers map it to 502/"no_backend".
var errNoBackend = errors.New("router: no owner backend reachable")

// IsNoBackend reports whether err means every owner was unreachable.
func IsNoBackend(err error) bool { return errors.Is(err, errNoBackend) }

// answered reports whether err is a backend's authoritative answer to a
// request — a ServerError — rather than a failure to get one. A
// "draining" answer is the exception: it is a replica saying it is
// going away, so reads treat it like a dead connection and move on to
// the next owner.
func answered(err error) bool {
	var se *client.ServerError
	return errors.As(err, &se) && se.Code != api.CodeDraining
}

// request is one request frame to forward: the tag it arrived under on
// the wire front (0 elsewhere), the dataset name that opens its
// payload, and the payload itself.
type request struct {
	op      byte
	tag     uint32
	dataset string
	payload []byte
}

// answerFunc receives one request's answer: the owner's reply, or the
// error that is all the request will get.
type answerFunc func(req *request, r *client.Reply, err error)

// relay is the one forwarding path under both fronts: it sends a run of
// already encoded request frames for one dataset to that dataset's
// owners and hands each answer to answer undecoded. Queries and joins
// go through the owner walk (read); any error frame but "draining" is
// the owner's answer and comes back as a Reply like a result does.
// Updates travel alone and go to the primary owner only, with no
// failover: the router cannot know whether a torn connection applied
// the batch, and a blind retry on a fallback owner could double-apply
// it — the explicit error hands that call to the caller, who knows
// whether the batch is idempotent.
func (rt *Router) relay(ctx context.Context, reqs []request, answer answerFunc) {
	if reqs[0].op != wire.OpUpdate {
		rt.read(ctx, reqs, answer)
		return
	}
	rt.met.requests[rcUpdate].Add(1)
	b := rt.owners(reqs[0].dataset)[0]
	rest, err := rt.try(ctx, b, reqs, answer)
	if len(rest) > 0 {
		if ctx.Err() == nil {
			rt.noteFailure(b, err)
		}
		answer(&rest[0], nil, fmt.Errorf("router: update primary %s: %w", b.ID(), err))
	}
}

// call relays one request frame and returns its answer: the HTTP
// front's way into relay, and the kept Range and KNN wrappers'.
func (rt *Router) call(ctx context.Context, dataset string, op byte, payload []byte) (r *client.Reply, err error) {
	rt.relay(ctx, []request{{op: op, dataset: dataset, payload: payload}},
		func(_ *request, reply *client.Reply, e error) { r, err = reply, e })
	return r, err
}

// read is the owner walk: it sends reqs (one class — joins travel
// alone) to the dataset's owners in ring order — healthy owners in a
// first pass, ejected ones as a last resort — and what one owner left
// unanswered moves on to the next, counting one failover a request. An
// attempt that fails at the connection level ejects its owner. One
// ended by the caller's own context (a hang-up, a spent budget) ejects
// no one and sends nothing again: the rest is answered with that error.
func (rt *Router) read(ctx context.Context, reqs []request, answer answerFunc) {
	class := rcQuery
	if reqs[0].op == wire.OpJoin {
		class = rcJoin
	}
	rt.met.requests[class].Add(int64(len(reqs)))
	owners := rt.owners(reqs[0].dataset)
	tried := false
	var err error
walk:
	for pass := 0; pass < 2; pass++ {
		for _, b := range owners {
			// Pass 0 tries healthy owners, pass 1 the ejected ones: a
			// probe can lag a recovery, so "everyone is ejected" still
			// attempts the ring order rather than failing outright.
			if (pass == 0) != b.healthy.Load() {
				continue
			}
			if tried {
				rt.met.failovers.Add(int64(len(reqs)))
			}
			tried = true
			if reqs, err = rt.try(ctx, b, reqs, answer); len(reqs) == 0 {
				return
			}
			if ctx.Err() != nil {
				break walk
			}
			rt.noteFailure(b, err)
		}
	}
	if ctx.Err() == nil {
		err = fmt.Errorf("%w: %w", errNoBackend, err)
	}
	for i := range reqs {
		answer(&reqs[i], nil, err)
	}
}

// try is one attempt at one backend: reqs go out over one pooled
// connection — one frame as Conn.Do, so a lone request wakes no
// goroutine but its own, several as one pipelined Batch — and each
// answer goes to answer as it is harvested. An answer is a reply (a
// result, or any error frame but a read's "draining": an update's
// primary has no one to defer to) or a ServerError the client returned
// without asking (an over-cap frame). The requests left unanswered come
// back as rest, in order and in reqs' own array, with the error that
// left them so. Each attempt feeds the per-backend series once: every
// frame sent, one latency sample, and one error when anything is left.
func (rt *Router) try(ctx context.Context, b *backend, reqs []request, answer answerFunc) (rest []request, err error) {
	b.requests.Add(int64(len(reqs)))
	start := time.Now()
	judge := func(req *request, r *client.Reply, e error) {
		if e == nil && req.op != wire.OpUpdate {
			e = draining(r)
		}
		if e == nil || answered(e) {
			answer(req, r, e)
			return
		}
		rest, err = append(rest, *req), e
	}
	c, cerr := b.pool.Conn(ctx)
	switch {
	case cerr != nil:
		rest, err = reqs, cerr
	case len(reqs) == 1:
		rest = reqs[:0]
		r, e := c.Do(ctx, client.Raw(reqs[0].op, reqs[0].payload))
		judge(&reqs[0], r, e)
	default:
		batch := c.Batch()
		futs := make([]client.ReplyFuture, len(reqs))
		for i := range reqs {
			futs[i] = batch.Add(client.Raw(reqs[i].op, reqs[i].payload))
		}
		if err = batch.Send(); err != nil {
			rest = reqs
			break
		}
		rest = reqs[:0]
		for i := range reqs {
			r, e := futs[i].Get(ctx)
			judge(&reqs[i], r, e)
		}
	}
	b.latency.Observe(time.Since(start))
	if len(rest) > 0 {
		b.errs.Add(1)
	}
	return rest, err
}

// draining returns a replica's "draining" error frame as an error and
// nil for any other reply.
func draining(r *client.Reply) error {
	var se *client.ServerError
	if errors.As(r.Err(), &se) && se.Code == api.CodeDraining {
		return se
	}
	return nil
}

// Range answers a range query from the dataset's owners. It stays only
// for benchmark/'s in-process router rung (router.call) until ROADMAP
// item 2: a Go program sends client.Range to the wire front.
func (rt *Router) Range(ctx context.Context, dataset string, box touch.Box) (version int64, ids []touch.ID, err error) {
	r, err := rt.call(ctx, dataset, wire.OpRange, wire.AppendRangeReq(nil, dataset, box))
	if err != nil {
		return 0, nil, err
	}
	return r.IDs()
}

// KNN answers a k-nearest-neighbor query from the dataset's owners. It
// stays only for benchmark/, as Range does.
func (rt *Router) KNN(ctx context.Context, dataset string, pt touch.Point, k int) (version int64, nbrs []touch.Neighbor, err error) {
	r, err := rt.call(ctx, dataset, wire.OpKNN, wire.AppendKNNReq(nil, dataset, pt, k))
	if err != nil {
		return 0, nil, err
	}
	return r.Neighbors()
}

// CatalogRow is one dataset of the merged catalog: the row reported by
// the dataset's primary owner (or, failing that, the reporting backend
// with the highest version) plus provenance — which backends reported
// it, and which owner's row was chosen.
type CatalogRow struct {
	client.DatasetInfo
	// Backends lists the display IDs of every backend reporting the
	// dataset, sorted.
	Backends []string `json:"backends"`
	// Source is the display ID of the backend whose row was chosen.
	Source string `json:"source"`
}

// BackendFailure reports one backend a scatter-gather could not reach.
type BackendFailure struct {
	Backend string
	Err     error
}

// Catalog scatter-gathers every backend's wire catalog and merges the
// listings by dataset name. The merge is best-effort by design: rows
// from unreachable backends are simply absent, and the failures list
// tells the caller which backends those were — a partial listing with
// explicit provenance beats an all-or-nothing error during a backend
// outage.
func (rt *Router) Catalog(ctx context.Context) ([]CatalogRow, []BackendFailure) {
	rt.met.requests[rcCatalog].Add(1)
	type answer struct {
		b     *backend
		infos []client.DatasetInfo
		err   error
	}
	answers := make([]answer, 0, len(rt.backends))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			var infos []client.DatasetInfo
			var err error
			_, lost := rt.try(ctx, b, []request{{op: wire.OpCatalog}}, func(_ *request, r *client.Reply, e error) {
				if err = e; e == nil {
					infos, err = r.Datasets()
				}
			})
			if lost != nil {
				err = lost
			}
			if err != nil && ctx.Err() == nil {
				rt.noteFailure(b, err)
			}
			mu.Lock()
			answers = append(answers, answer{b, infos, err})
			mu.Unlock()
		}(b)
	}
	wg.Wait()

	var failures []BackendFailure
	byName := make(map[string]*CatalogRow)
	for _, a := range answers {
		if a.err != nil {
			failures = append(failures, BackendFailure{Backend: a.b.ID(), Err: a.err})
			continue
		}
		for _, info := range a.infos {
			row := byName[info.Name]
			if row == nil {
				row = &CatalogRow{DatasetInfo: info, Source: a.b.ID()}
				byName[info.Name] = row
			}
			row.Backends = append(row.Backends, a.b.ID())
			// Prefer the primary owner's row; among the rest the highest
			// version wins — replicas lag during rebuilds and updates,
			// and the freshest row is the least misleading one.
			primary := rt.owners(info.Name)[0]
			switch {
			case a.b == primary:
				row.DatasetInfo, row.Source = info, a.b.ID()
			case row.Source != primary.ID() && info.Version > row.Version:
				row.DatasetInfo, row.Source = info, a.b.ID()
			}
		}
	}
	rows := make([]CatalogRow, 0, len(byName))
	for _, row := range byName {
		sort.Strings(row.Backends)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	sort.Slice(failures, func(i, j int) bool { return failures[i].Backend < failures[j].Backend })
	return rows, failures
}

// Close stops the health checker and closes every backend pool. Safe to
// call more than once.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.stop)
		<-rt.done
		for _, b := range rt.backends {
			b.pool.Close()
		}
	})
	return nil
}
