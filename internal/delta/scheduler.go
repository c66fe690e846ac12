package delta

import "sync"

// Scheduler decides when an owner folds its unfolded tail into the
// tiers: once the tail reaches Threshold (<= 0 never), on a goroutine of
// its own, never two at a time. The owner's writer lock guards it.
type Scheduler struct {
	Threshold int
	lock      sync.Locker
	size      func() int
	fold      func() (progress bool)
	inFlight  bool
}

// NewScheduler returns the scheduler of an owner whose writer lock is
// lock. size reports the owner's unfolded tail and is called with the
// lock held. fold runs without the lock and reports whether it folded
// anything; a fold that cannot make progress must report false, or it
// would be started again at once.
func NewScheduler(lock sync.Locker, threshold int, size func() int, fold func() (progress bool)) Scheduler {
	return Scheduler{Threshold: threshold, lock: lock, size: size, fold: fold}
}

// Arm starts the fold on a new goroutine when the tail has reached the
// threshold and no fold is in flight. The caller holds the lock. A fold
// that made progress arms again once it is done, under the lock and with
// the tail as it is then — so a burst that outran one fold, or a
// threshold lowered while it ran, is folded in turn, not left until the
// next write.
func (s *Scheduler) Arm() {
	if s.Threshold <= 0 || s.inFlight || s.size() < s.Threshold {
		return
	}
	s.inFlight = true
	go s.run()
}

func (s *Scheduler) run() {
	progress := s.fold()
	s.lock.Lock()
	defer s.lock.Unlock()
	s.inFlight = false
	if progress {
		s.Arm()
	}
}
