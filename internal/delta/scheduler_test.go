package delta

import (
	"runtime"
	"sync"
	"testing"
)

// TestScheduler walks the scheduler through its rules with an injected
// fold held on channels: every run announces itself on started, then
// reports as left pending whatever the test sends on result. A rule
// broken by starting no fold hangs on started until the test timeout.
func TestScheduler(t *testing.T) {
	var mu sync.Mutex
	started, result := make(chan struct{}), make(chan int)
	fold := func() int {
		started <- struct{}{}
		return <-result
	}
	newScheduler := func(threshold int) *Scheduler {
		s := NewScheduler(&mu, threshold, fold)
		return &s
	}
	arm := func(s *Scheduler, size int) {
		mu.Lock()
		defer mu.Unlock()
		s.Arm(size)
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
	result <- 8 // as much again arrived during the build:
	<-started   // it is folded in turn, with no further Arm
	result <- 7 // under the threshold: the chain ends
	settle(s, "after a fold that left less than the threshold pending, or while one was in flight")
	arm(s, 9) // idle again: the next crossing folds
	<-started
	result <- 0
	settle(s, "after a fold that left nothing pending")
}
