package delta

import "sync"

// Scheduler decides when an owner folds its pending delta into a rebuilt
// base: once the delta reaches Threshold (<= 0 never), on a goroutine of
// its own, never two at a time. The owner's writer lock guards it.
type Scheduler struct {
	Threshold int
	inFlight  bool
}

// Arm starts fold on a new goroutine when size has reached the threshold
// and no fold is in flight. The caller holds lock, the owner's writer
// lock; fold runs without it and returns the delta size it left pending,
// which is checked again under the lock — so a burst that outran one fold
// is folded in turn, not left until the next write. A fold that cannot
// make progress must return 0.
func (s *Scheduler) Arm(lock sync.Locker, size int, fold func() (pending int)) {
	if s.Threshold <= 0 || size < s.Threshold || s.inFlight {
		return
	}
	s.inFlight = true
	go func() {
		pending := fold()
		lock.Lock()
		defer lock.Unlock()
		s.inFlight = false
		s.Arm(lock, pending, fold)
	}()
}
