package delta

import (
	"runtime"
	"sync"
	"testing"
)

// TestScheduler walks the scheduler through its rules with an injected
// fold held on channels: every run announces itself on started, then
// leaves as the owner's tail whatever the test sends on left — a
// negative value is a fold that made no progress and leaves the tail
// alone. A rule broken by starting no fold hangs on started until the
// test timeout.
func TestScheduler(t *testing.T) {
	var mu sync.Mutex
	tail := 0       // the owner's unfolded tail, guarded by mu
	var late func() // what a fold runs once it has published, before it returns
	started, left := make(chan struct{}), make(chan int)
	fold := func() bool {
		started <- struct{}{}
		n := <-left
		if n < 0 {
			return false
		}
		mu.Lock()
		tail = n
		mu.Unlock()
		if late != nil {
			late()
		}
		return true
	}
	newScheduler := func(threshold int) *Scheduler {
		s := NewScheduler(&mu, threshold, func() int { return tail }, fold)
		return &s
	}
	// arm is a write: it sets the tail and arms, under the lock.
	arm := func(s *Scheduler, size int) {
		mu.Lock()
		defer mu.Unlock()
		tail = size
		s.Arm()
	}
	// settle waits until no fold is in flight and fails if one shows up
	// on started meanwhile. A fold goroutine's last act is clearing the bit
	// under the lock, and a re-arm sets it again before the lock is
	// released, so a scheduler that wrongly re-armed never reads idle
	// before its fold has announced itself.
	settle := func(s *Scheduler, why string) {
		t.Helper()
		for idle := false; !idle; runtime.Gosched() {
			mu.Lock()
			idle = !s.inFlight
			mu.Unlock()
			select {
			case <-started:
				t.Fatalf("a fold started %s", why)
			default:
			}
		}
	}

	for _, s := range []*Scheduler{newScheduler(0), newScheduler(-1), newScheduler(8)} {
		arm(s, 7)
		if s.Threshold <= 0 {
			arm(s, 1<<30)
		}
		settle(s, "with scheduling disabled or the delta under the threshold")
	}

	s := newScheduler(8)
	arm(s, 8)
	<-started
	arm(s, 100) // one is in flight: a fold started here would trip a later settle
	left <- 8   // as much again arrived during the build:
	<-started   // it is folded in turn, with no further Arm
	left <- 7   // under the threshold: the chain ends
	settle(s, "after a fold that left less than the threshold pending, or while one was in flight")
	arm(s, 9) // idle again: the next crossing folds
	<-started
	left <- 0
	settle(s, "after a fold that left nothing pending")

	// A threshold lowered and a write made after a fold has published, but
	// before it has cleared its in-flight bit, start nothing themselves:
	// the fold arms again with the tail as it is then, not as it left it.
	arm(s, 8)
	<-started
	late = func() {
		mu.Lock()
		s.Threshold = 2
		mu.Unlock()
		arm(s, 3)
	}
	left <- 0
	<-started
	late = nil
	left <- 0
	settle(s, "after the late write was folded")

	// A fold that made no progress does not start again by itself, however
	// large the tail it left.
	arm(s, 5)
	<-started
	left <- -1
	settle(s, "after a fold that made no progress")
}
