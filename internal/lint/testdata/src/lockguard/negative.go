package lockguard

// This file must stay silent: every access below follows the lock
// discipline, including the paths the flow walker finds hard — defer
// unlocks, RLock/RUnlock asymmetry, one-armed locking at joins,
// closures created inside critical sections, and holds-annotated
// helpers.

// goodLocked is the plain critical-section read-modify-write; holding
// the scheduler's exclusive lock also satisfies the session's external
// scheduler.mu guard.
func (d *scheduler) goodLocked(s *session) {
	d.mu.Lock()
	d.ring = append(d.ring, 1)
	d.unitsRun++
	s.inRing = true
	s.windowAt = 0
	d.mu.Unlock()
}

// goodDefer holds through every return via the deferred unlock.
func (d *scheduler) goodDefer(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > 0 {
		return len(d.ring)
	}
	d.fifo = nil
	return len(d.fifo)
}

// goodShared reads under the read lock only.
func (t *table) goodShared(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.entries[k]
}

// goodUpgrade is the check-then-lock idiom: an RLock/RUnlock probe,
// then an exclusive retry — asymmetric pairs, both correct.
func (t *table) goodUpgrade(k string) {
	t.mu.RLock()
	_, ok := t.entries[k]
	t.mu.RUnlock()
	if !ok {
		t.mu.Lock()
		t.entries[k] = 1
		t.mu.Unlock()
	}
}

// goodMaybe locks on one arm only: the join widens to maybe-held, which
// the analyzer deliberately does not report.
func (d *scheduler) goodMaybe(cond bool) {
	if cond {
		d.mu.Lock()
	}
	d.ring = nil
	if cond {
		d.mu.Unlock()
	}
}

// goodClosureUnderLock creates a closure inside the critical section:
// the closure may run under the lock or long after, so its accesses
// demote to maybe and stay silent.
func (d *scheduler) goodClosureUnderLock() {
	d.mu.Lock()
	snapshot := func() int { return len(d.ring) }
	_ = snapshot()
	d.mu.Unlock()
}

// goodDeferClosure wraps the unlock in a deferred literal, the
// multi-step-teardown idiom.
func (d *scheduler) goodDeferClosure() int {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
	}()
	return len(d.ring)
}

// drainLocked assumes the caller's lock, the *Locked helper convention.
//
//hennlint:holds(mu)
func (d *scheduler) drainLocked() {
	d.ring = d.ring[:0]
	d.fifo = nil
}

// eligibleLocked mirrors the scheduler's free-function helper: the
// assumed guard is named by type for functions without a receiver.
//
//hennlint:holds(scheduler.mu)
func eligibleLocked(s *session) bool {
	return s.inRing || s.windowAt == 0
}

// goodCaller exercises both annotated helpers under the real lock.
func (d *scheduler) goodCaller(s *session) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if eligibleLocked(s) {
		d.drainLocked()
	}
}

// goodUnguarded touches only unguarded state with no lock: channels and
// locals are outside the discipline.
func (d *scheduler) goodUnguarded(s *session) {
	select {
	case v := <-s.jobs:
		_ = v
	default:
	}
}

// goodEveryClauseReturns unlocks and returns on every clause of a switch
// with a default: no path falls out of the switch, so no path reaches
// the end of the body with the lock held.
func (d *scheduler) goodEveryClauseReturns(n int) int {
	d.mu.Lock()
	switch n {
	case 0:
		d.mu.Unlock()
		return 0
	default:
		d.mu.Unlock()
		return n
	}
}

// goodEveryCommReturns is the select twin: without a default, one of
// its clauses always runs.
func (d *scheduler) goodEveryCommReturns(s *session, n int) int {
	d.mu.Lock()
	select {
	case v := <-s.jobs:
		d.mu.Unlock()
		return v
	case s.jobs <- n:
		d.mu.Unlock()
		return n
	}
}
