package router

import (
	"context"
	"time"

	"touch/client"
)

// probeBackoffMax caps how rarely an ejected backend is re-probed: the
// worst-case reinstatement lag after a long outage.
const probeBackoffMax = 30 * time.Second

// probeTimeout bounds one health probe (dial + handshake).
const probeTimeout = 2 * time.Second

// Start runs one synchronous health sweep — so a router fresh out of
// New already knows which backends answer before it takes traffic —
// then probes in the background every HealthInterval until Close.
func (rt *Router) Start() {
	rt.sweep()
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.sweep()
			}
		}
	}()
}

// sweep probes every backend due for one. Healthy backends are probed
// every sweep (cheap: one dial + handshake + close); ejected ones back
// off exponentially to probeBackoffMax so a long-dead backend costs a
// connect attempt every 30s, not every interval.
func (rt *Router) sweep() {
	now := time.Now()
	for _, b := range rt.backends {
		if !b.healthy.Load() {
			b.mu.Lock()
			due := now.After(b.nextProbe) || b.nextProbe.IsZero()
			b.mu.Unlock()
			if !due {
				continue
			}
		}
		rt.probe(b)
	}
}

// probe checks one backend with a full wire handshake — the one check
// that proves the backend can actually serve, unlike a bare TCP connect
// — and learns the backend's advertised node ID as a side effect.
func (rt *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	c, err := client.Dial(ctx, b.addr)
	if err != nil {
		rt.noteProbeFailure(b, err)
		return
	}
	if id := c.ServerNode(); id != "" {
		b.id.Store(&id)
	}
	c.Close()
	if b.healthy.CompareAndSwap(false, true) {
		rt.met.reinstatements.Add(1)
		b.mu.Lock()
		b.backoff, b.nextProbe = 0, time.Time{}
		b.mu.Unlock()
		rt.cfg.Logger.Info("backend reinstated", "backend", b.ID(), "addr", b.addr)
	}
}

// noteProbeFailure records a failed probe: eject if still marked
// healthy, and push the next probe out exponentially.
func (rt *Router) noteProbeFailure(b *backend, err error) {
	rt.eject(b, err)
	b.mu.Lock()
	if b.backoff == 0 {
		b.backoff = rt.cfg.HealthInterval
	} else if b.backoff < probeBackoffMax {
		b.backoff *= 2
		if b.backoff > probeBackoffMax {
			b.backoff = probeBackoffMax
		}
	}
	b.nextProbe = time.Now().Add(b.backoff)
	b.mu.Unlock()
}

// noteFailure is the request path's ejection hook: a connection-level
// error against a backend ejects it immediately — the next read skips
// it on the first pass — and schedules a prompt probe so a blip costs
// one health interval, not a backoff ladder.
func (rt *Router) noteFailure(b *backend, err error) {
	rt.eject(b, err)
	b.mu.Lock()
	if b.nextProbe.IsZero() {
		b.nextProbe = time.Now()
	}
	b.mu.Unlock()
}

func (rt *Router) eject(b *backend, err error) {
	if b.healthy.CompareAndSwap(true, false) {
		rt.met.ejections.Add(1)
		rt.cfg.Logger.Warn("backend ejected", "backend", b.ID(), "addr", b.addr, "error", err)
	}
}
