package sim

import "fmt"

// Fifo is a synchronous two-phase FIFO. Pushes staged during Eval become
// visible to readers only after Update (i.e. the next cycle); pops staged
// during Eval are likewise committed at Update. CanPush accounts for pushes
// already staged this cycle, so several producers evaluated in the same
// cycle cannot overflow the FIFO. CanPop and Peek see only committed
// entries, so an entry pushed in cycle N is poppable in cycle N+1 at the
// earliest — one cycle of latency per hop, as in registered hardware.
//
// The owning component (or a shared Commit group) must call Update once per
// cycle; the kernel does this when the Fifo is registered on a clock, but
// the usual pattern is for the component owning the FIFO to call
// fifo.Update() from its own Update method.
//
// Storage is a fixed ring of depth slots allocated at construction: the
// committed entries occupy slots head..head+n-1 (mod depth) and pushes
// staged this cycle sit immediately after them, so committing at Update is a
// counter bump with no copying and no allocation. Popped slots are zeroed at
// Update so removed entries drop their references for the GC.
//
// # Concurrent use in sharded runs
//
// A Fifo is single-producer/single-consumer: at most one component stages
// pushes and at most one stages pops. In the sharded execution mode the two
// sides may live on different shards (goroutines). That is safe *without*
// atomics only under the deferred-commit discipline (MarkDeferred):
//
//   - the pusher touches only npush and the ring slots at index >= n;
//   - the popper touches only npop and the ring slots at index < n;
//   - n and head stay frozen for the whole synchronization window, because
//     Update becomes a no-op and the commit is performed by the window
//     coordinator (CommitDeferred) between windows, when both shards are
//     parked at the barrier (which establishes the happens-before edges).
//
// RemoveAt breaks the field partition (it rewrites n and shifts committed
// slots during Eval) and therefore panics on a deferred FIFO.
//
// # Wakes
//
// SetConsumer and SetProducer wire the sleep records of the component that
// pops and the component that pushes (DESIGN.md §20): every Push wakes the
// consumer and every Pop or RemoveAt wakes the producer, in time for the
// owner's Update to commit the operation on the same edge. Ports wire both
// parties where they are built and attached (internal/bus).
type Fifo[T any] struct {
	name  string
	depth int
	buf   []T
	head  int // ring index of the oldest committed entry
	n     int // committed entries (still counting pops staged this cycle)
	npush int // pushes staged this cycle, stored after the committed region
	npop  int // pops staged this cycle

	// deferred routes the owner's per-cycle Update to the external
	// CommitDeferred call of a shard coordinator (see MarkDeferred).
	deferred bool

	// producer and consumer are the sleep records of the pushing and the
	// popping component (nil when that party cannot sleep); Push wakes the
	// consumer, Pop and RemoveAt wake the producer.
	producer, consumer *Activity

	// occupancy statistics (committed state, sampled at Update)
	cycles      int64
	fullCycles  int64
	emptyCycles int64
	maxOcc      int
	pushedTotal int64
}

// NewFifo returns a FIFO with the given capacity. Depth must be positive.
func NewFifo[T any](name string, depth int) *Fifo[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("sim: fifo %q depth must be positive, got %d", name, depth))
	}
	return &Fifo[T]{name: name, depth: depth, buf: make([]T, depth)}
}

// slot maps a logical index (0 = oldest committed entry) to a ring index.
func (f *Fifo[T]) slot(i int) int {
	j := f.head + i
	if j >= f.depth {
		j -= f.depth
	}
	return j
}

// Name returns the FIFO's name.
func (f *Fifo[T]) Name() string { return f.name }

// Depth returns the FIFO capacity.
func (f *Fifo[T]) Depth() int { return f.depth }

// Len returns the committed occupancy (entries visible to the reader).
func (f *Fifo[T]) Len() int { return f.n }

// Staged returns the number of pushes staged this cycle but not yet
// committed. Interface monitors use it to observe "a request is being
// stored this cycle" (e.g. the LMI bus-interface statistics of the paper's
// Fig.6) during the Update phase.
func (f *Fifo[T]) Staged() int { return f.npush }

// SpaceStaged returns the number of free slots accounting for pushes staged
// this cycle but not for staged pops (conservative, hardware-accurate: a
// full FIFO does not accept a push in the same cycle an entry leaves).
func (f *Fifo[T]) SpaceStaged() int { return f.depth - f.n - f.npush }

// CanPush reports whether a push staged now would fit.
func (f *Fifo[T]) CanPush() bool { return f.SpaceStaged() > 0 }

// Push stages an entry for commit at Update. It panics on overflow — callers
// must check CanPush; overflow is a modelling bug, not a runtime condition.
func (f *Fifo[T]) Push(v T) {
	if !f.CanPush() {
		panic(fmt.Sprintf("sim: push to full fifo %q (depth %d)", f.name, f.depth))
	}
	// Wakes come first: a sleeping owner is credited its slept commits
	// against the state they saw.
	if a := f.consumer; a != nil {
		a.Wake()
	}
	f.buf[f.slot(f.n+f.npush)] = v
	f.npush++
}

// SetProducer records the sleep record of the component that pushes; every
// Pop and RemoveAt wakes it.
func (f *Fifo[T]) SetProducer(a *Activity) { f.producer = a }

// SetConsumer records the sleep record of the component that pops; every
// Push wakes it.
func (f *Fifo[T]) SetConsumer(a *Activity) { f.consumer = a }

// Idle credits n cycles in which the owner slept and so did not call
// Update: the occupancy statistics advance as n commits of an unchanged
// FIFO would advance them. A sleeping owner's FIFOs hold nothing staged.
func (f *Fifo[T]) Idle(n int64) {
	f.cycles += n
	switch {
	case f.n >= f.depth:
		f.fullCycles += n
	case f.n == 0:
		f.emptyCycles += n
	}
}

// CanPop reports whether a committed entry is available beyond those already
// popped this cycle.
func (f *Fifo[T]) CanPop() bool { return f.npop < f.n }

// Peek returns the oldest not-yet-popped committed entry without consuming
// it. It panics if none is available.
func (f *Fifo[T]) Peek() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: peek on empty fifo %q", f.name))
	}
	return f.buf[f.slot(f.npop)]
}

// PeekAt returns the i-th not-yet-popped committed entry (0 = oldest). Used
// by lookahead optimizers that inspect the queue without consuming it.
func (f *Fifo[T]) PeekAt(i int) T {
	if i < 0 || f.npop+i >= f.n {
		panic(fmt.Sprintf("sim: peekAt(%d) out of range on fifo %q (len %d, npop %d)", i, f.name, f.n, f.npop))
	}
	return f.buf[f.slot(f.npop+i)]
}

// RemoveAt stages removal of the i-th not-yet-popped committed entry
// (0 = oldest) and returns it. RemoveAt(0) is equivalent to Pop. Removal of
// an inner entry models an out-of-order scheduler picking from a queue; the
// entry leaves the committed region immediately (its slot is reusable this
// same cycle), matching a scheduler that frees the queue slot on issue. Only
// one RemoveAt with i>0 per cycle is supported (sufficient for the LMI
// optimizer, which issues one command per cycle).
func (f *Fifo[T]) RemoveAt(i int) T {
	if f.deferred {
		panic(fmt.Sprintf("sim: removeAt on deferred-commit fifo %q (breaks the SPSC field partition)", f.name))
	}
	if i == 0 {
		return f.Pop()
	}
	idx := f.npop + i
	if i < 0 || idx >= f.n {
		panic(fmt.Sprintf("sim: removeAt(%d) out of range on fifo %q", i, f.name))
	}
	// The slot is free at once: a producer evaluated later on this edge
	// may already push into it.
	if a := f.producer; a != nil {
		a.Wake()
	}
	v := f.buf[f.slot(idx)]
	// Close the gap in place: shift the younger committed entries and any
	// pushes staged this cycle down one slot, then clear the vacated slot
	// so the removed entry drops its reference.
	last := f.n + f.npush - 1
	for j := idx; j < last; j++ {
		f.buf[f.slot(j)] = f.buf[f.slot(j+1)]
	}
	var zero T
	f.buf[f.slot(last)] = zero
	f.n--
	return v
}

// Pop stages consumption of the oldest committed entry and returns it.
func (f *Fifo[T]) Pop() T {
	if !f.CanPop() {
		panic(fmt.Sprintf("sim: pop from empty fifo %q", f.name))
	}
	if a := f.producer; a != nil {
		a.Wake()
	}
	v := f.buf[f.slot(f.npop)]
	f.npop++
	return v
}

// Update commits staged pushes and pops and samples occupancy statistics.
// Call exactly once per cycle of the owning clock domain. On a
// deferred-commit FIFO (MarkDeferred) it is a no-op: the shard coordinator
// commits via CommitDeferred at the window barrier instead, exactly once per
// owning-clock cycle, so committed visibility and the per-cycle occupancy
// statistics stay bit-identical to a serial run.
func (f *Fifo[T]) Update() {
	if f.deferred {
		return
	}
	f.commit()
}

// MarkDeferred switches the FIFO into deferred-commit mode for sharded
// execution: the owner's Update becomes a no-op and the coordinator must
// call CommitDeferred once per owning-clock cycle, between synchronization
// windows. The FIFO must be quiescent — no staged pushes or pops, i.e. the
// call happens at an edge boundary, not mid-cycle — because a staged
// operation at the mode switch would tear the SPSC field partition
// documented on the type. Committed entries are fine: n and head are frozen
// for whole windows either way, so a checkpoint-restored platform (whose
// boundary FIFOs legitimately hold in-flight traffic) shards safely.
//
// Both parties are pinned awake (Activity.Pin) and neither Push nor Pop
// wakes anything any more: the two sides run on different goroutines, so no
// wake may cross between them.
func (f *Fifo[T]) MarkDeferred() {
	if f.npush != 0 || f.npop != 0 {
		panic(fmt.Sprintf("sim: MarkDeferred on fifo %q with staged operations (npush=%d npop=%d)", f.name, f.npush, f.npop))
	}
	for _, a := range [2]*Activity{f.producer, f.consumer} {
		if a != nil {
			a.Pin()
		}
	}
	f.producer, f.consumer = nil, nil
	f.deferred = true
}

// Deferred reports whether the FIFO is in deferred-commit mode.
func (f *Fifo[T]) Deferred() bool { return f.deferred }

// CommitDeferred performs the commit the owner's Update skipped. Only the
// shard coordinator may call it, single-threaded, while every shard is
// parked at the window barrier; it panics on a FIFO that was never
// MarkDeferred.
func (f *Fifo[T]) CommitDeferred() {
	if !f.deferred {
		panic(fmt.Sprintf("sim: CommitDeferred on non-deferred fifo %q", f.name))
	}
	f.commit()
}

func (f *Fifo[T]) commit() {
	if f.npop > 0 {
		var zero T
		for i := 0; i < f.npop; i++ {
			f.buf[f.slot(i)] = zero // release references for GC
		}
		f.head = f.slot(f.npop)
		f.n -= f.npop
		f.npop = 0
	}
	if f.npush > 0 {
		// Staged entries already sit in their final slots: commit is a
		// counter bump.
		f.n += f.npush
		f.pushedTotal += int64(f.npush)
		f.npush = 0
	}
	f.cycles++
	switch {
	case f.n >= f.depth:
		f.fullCycles++
	case f.n == 0:
		f.emptyCycles++
	}
	if f.n > f.maxOcc {
		f.maxOcc = f.n
	}
}

// Reset discards all committed and staged state and statistics. The
// preallocated ring storage is retained (and cleared), so a Reset FIFO is
// immediately reusable with no further allocation.
func (f *Fifo[T]) Reset() {
	var zero T
	for i := range f.buf {
		f.buf[i] = zero
	}
	f.head, f.n, f.npush, f.npop = 0, 0, 0, 0
	f.cycles, f.fullCycles, f.emptyCycles, f.pushedTotal = 0, 0, 0, 0
	f.maxOcc = 0
}

// Stats returns occupancy statistics sampled at each Update.
func (f *Fifo[T]) Stats() FifoStats {
	return FifoStats{
		Cycles:       f.cycles,
		FullCycles:   f.fullCycles,
		EmptyCycles:  f.emptyCycles,
		MaxOccupancy: f.maxOcc,
		Pushed:       f.pushedTotal,
	}
}

// FifoStats summarizes a FIFO's lifetime occupancy.
type FifoStats struct {
	Cycles       int64
	FullCycles   int64
	EmptyCycles  int64
	MaxOccupancy int
	Pushed       int64
}

// FullFrac returns the fraction of cycles the FIFO was full.
func (s FifoStats) FullFrac() float64 { return frac(s.FullCycles, s.Cycles) }

// EmptyFrac returns the fraction of cycles the FIFO was empty.
func (s FifoStats) EmptyFrac() float64 { return frac(s.EmptyCycles, s.Cycles) }

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
