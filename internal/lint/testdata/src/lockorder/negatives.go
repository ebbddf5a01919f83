package lockorder

import "sync"

// seqA/seqB are only ever locked sequentially — no edges, no findings.
type seqA struct{ mu sync.Mutex }
type seqB struct{ mu sync.Mutex }

func sequential(a *seqA, b *seqB) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// unlockBeforeCall mirrors registry's Deployed.free: the inner lock is
// released before calling into code that takes the other one.
func unlockBeforeCall(a *seqA, b *seqB) {
	a.mu.Lock()
	done := true
	a.mu.Unlock()
	if done {
		lockB(b)
	}
}

func lockB(b *seqB) {
	b.mu.Lock()
	b.mu.Unlock()
}

func lockA(a *seqA) {
	a.mu.Lock()
	a.mu.Unlock()
}

// spawned goroutines run on their own stack: the reverse nesting below
// never happens on one stack, so no seqB -> seqA edge forms.
func spawner(a *seqA, b *seqB) {
	b.mu.Lock()
	go lockA(a)
	go func() {
		lockA(a)
	}()
	b.mu.Unlock()
}

// twoInstances locks two instances of one class: class-level analysis
// cannot order instances, so the self-pair is skipped.
func twoInstances(x, y *seqA) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// branches converge: each arm pairs its own lock correctly and the held
// set at the join is the union of survivors.
func branchy(a *seqA, b *seqB, cond bool) {
	if cond {
		a.mu.Lock()
		defer a.mu.Unlock()
	} else {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
}

// rw is read-locked sequentially with the others: RLock shares its
// class with Lock and stays silent here too.
type rw struct{ mu sync.RWMutex }

func readers(r *rw, b *seqB) {
	r.mu.RLock()
	r.mu.RUnlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// caseA is released on every clause of a switch (and of a select) that
// has a default before caseB is taken, exactly as in the if/else twin;
// a select without a default always runs one of its clauses, so it
// releases caseA too. No caseA -> caseB edge exists, so bThenA closes no
// cycle.
type caseA struct{ mu sync.Mutex }
type caseB struct{ mu sync.Mutex }

func releaseEveryCase(a *caseA, b *caseB, x int) {
	a.mu.Lock()
	switch x {
	case 1:
		a.mu.Unlock()
	default:
		a.mu.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func releaseEveryComm(a *caseA, b *caseB, ch chan int) {
	a.mu.Lock()
	select {
	case <-ch:
		a.mu.Unlock()
	default:
		a.mu.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func releaseEveryRecv(a *caseA, b *caseB, ch chan int) {
	a.mu.Lock()
	select {
	case <-ch:
		a.mu.Unlock()
	case ch <- 1:
		a.mu.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func releaseEveryArm(a *caseA, b *caseB, x int) {
	a.mu.Lock()
	if x == 1 {
		a.mu.Unlock()
	} else {
		a.mu.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func bThenA(a *caseA, b *caseB) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
