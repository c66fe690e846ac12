package client

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Dial-backoff bounds: after a failed dial the pool waits dialBackoffMin
// before trying again, doubling per consecutive failure up to
// dialBackoffMax. A dead backend then costs each caller a cached error,
// not a connect attempt — a routing tier retrying hundreds of requests
// per second against an ejected backend must not turn into a SYN storm.
const (
	dialBackoffMin = 100 * time.Millisecond
	dialBackoffMax = 3 * time.Second
)

// Pool hands out up to size multiplexed connections round-robin.
// Because a Conn pipelines concurrent requests, connections are shared,
// not checked out exclusively — Conn(ctx) just picks one, dialing
// lazily and replacing any that have failed. There is no Put.
type Pool struct {
	addr string
	size int

	mu     sync.Mutex
	conns  []*Conn
	next   int
	closed bool

	// Dial-backoff state, guarded by mu: consecutive failed dials, the
	// earliest time the next dial may start, and the error served while
	// waiting. A successful dial resets all three.
	dialFails int
	nextDial  time.Time
	lastErr   error

	// dials counts dial attempts, for the backoff regression test.
	dials atomic.Int64
}

// NewPool returns a pool of at most size connections to addr. Nothing
// is dialed until the first Conn call.
func NewPool(addr string, size int) *Pool {
	if size <= 0 {
		size = 1
	}
	return &Pool{addr: addr, size: size}
}

// Addr returns the address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// pick returns the next live pooled connection in round-robin order,
// nil when there is none. It looks only at the connection it is about to
// hand out — Conn.Err on an idle connection is a look at its socket, one
// system call — and one found dead is closed, dropped and the next
// tried; a dead connection further round is found when its turn comes.
// The caller holds mu.
func (p *Pool) pick() *Conn {
	for len(p.conns) > 0 {
		p.next++
		i := p.next % len(p.conns)
		c := p.conns[i]
		if c.Err() == nil {
			return c
		}
		c.Close()
		p.conns = append(p.conns[:i], p.conns[i+1:]...)
	}
	return nil
}

// Conn returns a healthy pooled connection, dialing if the pool is not
// yet full or a pooled connection has failed. The dial happens outside
// the pool lock — a slow or hanging dial must not block other callers
// from using the healthy connections already pooled — and when it fails
// but a live connection exists, that connection is returned instead of
// the dial error: the pool just serves below capacity until the next
// call retries the dial. While the dial-backoff window from a previous
// failure is open no dial is attempted at all: the call gets the
// fallback connection, or the cached dial error when none exists.
func (p *Pool) Conn(ctx context.Context) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	// The pick doubles as the fallback: if the pool is short and the dial
	// fails, a healthy connection still answers this call.
	fallback := p.pick()
	if fallback != nil && len(p.conns) >= p.size {
		p.mu.Unlock()
		return fallback, nil
	}
	if wait, lastErr := time.Until(p.nextDial), p.lastErr; wait > 0 && lastErr != nil {
		p.mu.Unlock()
		if fallback != nil {
			return fallback, nil
		}
		return nil, lastErr
	}
	p.mu.Unlock()

	p.dials.Add(1)
	c, err := Dial(ctx, p.addr)
	if err != nil {
		p.noteDialFailure(err)
		if fallback != nil {
			return fallback, nil
		}
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dialFails, p.nextDial, p.lastErr = 0, time.Time{}, nil
	if p.closed {
		c.Close()
		return nil, ErrClosed
	}
	// Concurrent callers may have filled the pool while we dialed; a
	// connection the pool doesn't retain would leak, so prefer a pooled
	// one and close the extra dial.
	if len(p.conns) >= p.size {
		c.Close()
		p.next++
		return p.conns[p.next%len(p.conns)], nil
	}
	p.conns = append(p.conns, c)
	return c, nil
}

// noteDialFailure opens (or extends) the dial-backoff window.
func (p *Pool) noteDialFailure(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	backoff := dialBackoffMin << p.dialFails
	if backoff > dialBackoffMax {
		backoff = dialBackoffMax
	}
	// Cap the exponent well before the doubling could overflow; the
	// window is already clamped to dialBackoffMax by then.
	if p.dialFails < 8 {
		p.dialFails++
	}
	p.nextDial = time.Now().Add(backoff)
	p.lastErr = err
}

// Close closes every pooled connection; outstanding requests on them
// fail with ErrClosed. Close is idempotent — later calls are no-ops.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	return nil
}
