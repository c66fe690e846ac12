package client

// DialAttempts reports how many dials the pool has started — the
// observable the dial-backoff regression test pins.
func (p *Pool) DialAttempts() int64 { return p.dials.Load() }

// SetAwaitGap installs f to run between a waiter finding the read side
// taken and its going to sleep; nil removes it.
func SetAwaitGap(f func()) {
	if f == nil {
		awaitGap.Store(nil)
		return
	}
	awaitGap.Store(&f)
}

// ReadSideTaken reports whether some caller is reading the connection.
func (c *Conn) ReadSideTaken() bool {
	if c.rmu.TryLock() {
		c.releaseRead()
		return false
	}
	return true
}
