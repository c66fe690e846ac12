package delta

import "sync"

// Scheduler decides when an owner folds its unfolded tail into the
// tiers: once the tail reaches Threshold (<= 0 never), on a goroutine of
// its own, never two at a time. The owner's writer lock guards it.
type Scheduler struct {
	Threshold int
	lock      sync.Locker
	fold      func() (pending int)
	inFlight  bool
}

// NewScheduler returns the scheduler of an owner whose writer lock is
// lock. fold runs without the lock and returns the tail size it left
// pending; a fold that cannot make progress must return 0.
func NewScheduler(lock sync.Locker, threshold int, fold func() (pending int)) Scheduler {
	return Scheduler{Threshold: threshold, lock: lock, fold: fold}
}

// Arm starts the fold on a new goroutine when size has reached the
// threshold and no fold is in flight. The caller holds the lock. What
// the fold leaves pending is checked again under the lock — so a burst
// that outran one fold is folded in turn, not left until the next write.
func (s *Scheduler) Arm(size int) {
	if s.Threshold <= 0 || size < s.Threshold || s.inFlight {
		return
	}
	s.inFlight = true
	go s.run()
}

func (s *Scheduler) run() {
	pending := s.fold()
	s.lock.Lock()
	defer s.lock.Unlock()
	s.inFlight = false
	s.Arm(pending)
}
