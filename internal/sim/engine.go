package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is the allocation-free alternative to a closure callback: a
// value implementing Event is dispatched by the engine without capturing
// anything. Hot paths (the wire simulator's per-packet events) pool
// their Event implementations and schedule them via ScheduleEvent, so a
// steady-state simulation performs no per-event heap allocation at all.
type Event interface {
	Fire()
}

// entry is one scheduled occurrence, stored by value in the engine's
// queue. It holds no pointers: the callback lives in the entry's slot,
// which never moves, so sifting copies plain words (no GC write
// barrier) and the collector never scans the queue.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	slot int32  // slot holding the callback and backing the Timer
}

// before orders entries by (at, seq) — the engine's total event order.
// seq is unique per engine, so the order is strict and the firing
// sequence does not depend on the queue's internal layout.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer handle slots. A slot is acquired per scheduled entry and
// released when the entry fires or is removed; its generation counter
// increments on release, so a stale Timer held across the slot's reuse
// can never cancel the wrong event. The slot also holds the entry's
// callback (exactly one of fn and ev while the slot is in use); release
// clears both, so a fired or discarded event pins nothing.
const (
	slotFree = iota
	slotLive
	slotCancelled
)

type slot struct {
	gen   uint64
	state uint8
	next  int32 // free-list link, valid while state == slotFree
	fn    func()
	ev    Event
}

// compactMin is the queue size below which cancelled entries are left
// for lazy removal; compacting tiny queues is churn for no benefit.
const compactMin = 64

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine. An Engine (and everything scheduled
// on it) belongs to a single goroutine.
//
// The queue is a value-typed 4-ary min-heap of pointer-free
// (at, seq, slot) entries; callbacks are kept in a slot table with a
// free list, and the slot doubles as the Timer handle. Steady-state
// scheduling performs no heap allocation (the backing arrays are
// reused), sifts move no pointers, Cancel is O(1) (entries are marked
// through their slot and skipped when they surface), and the queue
// compacts itself when cancelled entries outnumber live ones.
type Engine struct {
	now     Time
	queue   []entry
	seq     uint64
	stopped bool
	// executed counts events that have run; useful as a progress and
	// complexity metric in tests and benchmarks.
	executed uint64
	// flushed is the executed prefix already added to the process-wide
	// counter (see TotalExecuted).
	flushed uint64
	// live counts scheduled, not-yet-fired, not-cancelled entries;
	// Pending returns it in O(1).
	live int
	// cancelled counts cancelled entries still occupying the queue.
	cancelled int
	slots     []slot
	freeSlot  int32 // head of the slot free list, -1 when empty
	// obs, when non-nil, is notified of every event firing and
	// cancellation. The disabled cost is one nil check per event.
	obs EventObserver
}

// EventObserver receives engine-level notifications: one call per
// fired event (at the event's timestamp, before its action runs) and
// one per cancellation. Observers must only observe — scheduling new
// events or mutating engine state from a callback is a modeling bug.
// The tracing layer (internal/obs) implements this interface; the sim
// package only defines it, keeping the engine dependency-free.
type EventObserver interface {
	EventFired(at Time)
	EventCancelled(at Time)
}

// SetObserver installs (or clears, with nil) the event observer.
func (e *Engine) SetObserver(o EventObserver) { e.obs = o }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{freeSlot: -1}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// totalExecuted accumulates fired events across every engine in the
// process; engines flush their local counts into it when a Run variant
// returns, so the per-event hot path stays free of atomics.
var totalExecuted atomic.Uint64

// TotalExecuted reports the process-wide count of fired simulation
// events, aggregated across all engines at Run/RunUntil/RunCondition
// boundaries. The benchmark reporting layer divides wall-clock and
// allocation deltas by deltas of this counter to derive per-event cost
// metrics.
func TotalExecuted() uint64 { return totalExecuted.Load() }

func (e *Engine) flushExecuted() {
	if d := e.executed - e.flushed; d > 0 {
		totalExecuted.Add(d)
		e.flushed = e.executed
	}
}

// --- 4-ary min-heap over entries ---
//
// Arity 4 halves the tree depth of the binary heap: sift-up does fewer
// comparisons per level and the four children of a node share a cache
// line of entries, which is where a discrete-event queue spends its
// time.

func (e *Engine) push(en entry) {
	e.queue = append(e.queue, en)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) siftUp(i int) {
	en := e.queue[i]
	for i > 0 {
		p := (i - 1) / 4
		if !en.before(e.queue[p]) {
			break
		}
		e.queue[i] = e.queue[p]
		i = p
	}
	e.queue[i] = en
}

func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	en := e.queue[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.queue[j].before(e.queue[m]) {
				m = j
			}
		}
		if !e.queue[m].before(en) {
			break
		}
		e.queue[i] = e.queue[m]
		i = m
	}
	e.queue[i] = en
}

// popMin removes and returns the minimum entry.
func (e *Engine) popMin() entry {
	min := e.queue[0]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue[0] = last
		e.siftDown(0)
	}
	return min
}

// --- Timer handle slots ---

func (e *Engine) acquireSlot() int32 {
	if s := e.freeSlot; s >= 0 {
		e.freeSlot = e.slots[s].next
		e.slots[s].state = slotLive
		return s
	}
	e.slots = append(e.slots, slot{state: slotLive})
	return int32(len(e.slots) - 1)
}

// releaseSlot returns a slot to the free list, clears its callback and
// bumps its generation, invalidating every outstanding Timer that still
// points at it.
func (e *Engine) releaseSlot(s int32) {
	sl := &e.slots[s]
	sl.gen++
	sl.state = slotFree
	sl.next = e.freeSlot
	sl.fn = nil
	sl.ev = nil
	e.freeSlot = s
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it
// always indicates a modeling bug, and silently reordering time would
// invalidate every latency measurement built on the engine.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, fn, nil)
}

// ScheduleEvent is Schedule for pooled Event values: no closure, and no
// allocation on the engine side — the entry lives by value in the queue
// and the Event in a reused slot.
func (e *Engine) ScheduleEvent(at Time, ev Event) Timer {
	if ev == nil {
		panic("sim: nil event")
	}
	return e.schedule(at, nil, ev)
}

func (e *Engine) schedule(at Time, fn func(), ev Event) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	s := e.acquireSlot()
	sl := &e.slots[s]
	sl.fn, sl.ev = fn, ev
	e.push(entry{at: at, seq: e.seq, slot: s})
	e.seq++
	e.live++
	return Timer{eng: e, slot: s, gen: e.slots[s].gen}
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterEvent runs ev d after the current time.
func (e *Engine) AfterEvent(d Duration, ev Event) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleEvent(e.now.Add(d), ev)
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		en := e.popMin()
		if e.slots[en.slot].state == slotCancelled {
			e.cancelled--
			e.releaseSlot(en.slot)
			continue
		}
		// Read the callback first: releasing clears the slot, which
		// the callback may then reuse.
		sl := &e.slots[en.slot]
		fn, ev := sl.fn, sl.ev
		e.releaseSlot(en.slot)
		e.now = en.at
		e.executed++
		e.live--
		if e.obs != nil {
			e.obs.EventFired(en.at)
		}
		if fn != nil {
			fn()
		} else {
			ev.Fire()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.flushExecuted()
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. It reports whether the queue drained before the
// deadline (i.e. no runnable event remained at or past it).
func (e *Engine) RunUntil(deadline Time) bool {
	defer e.flushExecuted()
	e.stopped = false
	for !e.stopped {
		en, ok := e.peek()
		if !ok {
			e.now = maxTime(e.now, deadline)
			return true
		}
		if en.at > deadline {
			e.now = deadline
			return false
		}
		e.Step()
	}
	return false
}

// RunCondition executes events until pred() reports true after some event,
// or the queue drains. It reports whether the predicate was satisfied.
// This is how experiments run "until the barrier completed".
func (e *Engine) RunCondition(pred func() bool) bool {
	defer e.flushExecuted()
	e.stopped = false
	if pred() {
		return true
	}
	for !e.stopped && e.Step() {
		if pred() {
			return true
		}
	}
	return pred()
}

// Stop makes the current Run/RunUntil/RunCondition return after the current
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextAt reports the timestamp of the next live (not cancelled) event,
// or ok == false when the queue is empty. Cancelled entries that have
// surfaced at the queue head are collected as a side effect. The
// partitioned runtime (internal/shard) uses it to skip empty lookahead
// windows: the coordinator advances every shard straight to the
// earliest pending event instead of stepping fixed windows through
// idle virtual time.
func (e *Engine) NextAt() (Time, bool) {
	en, ok := e.peek()
	return en.at, ok
}

// peek returns the next live entry without firing it, lazily discarding
// cancelled entries that have surfaced at the queue head.
func (e *Engine) peek() (entry, bool) {
	for len(e.queue) > 0 {
		if e.slots[e.queue[0].slot].state == slotCancelled {
			en := e.popMin()
			e.cancelled--
			e.releaseSlot(en.slot)
			continue
		}
		return e.queue[0], true
	}
	return entry{}, false
}

// compact removes every cancelled entry from the queue in one O(n)
// rebuild. Without it, a workload that schedules and cancels many
// timers (retransmission timers under heavy loss) would grow the queue
// unboundedly until the dead entries' timestamps surfaced.
func (e *Engine) compact() {
	kept := e.queue[:0]
	for _, en := range e.queue {
		if e.slots[en.slot].state == slotCancelled {
			e.cancelled--
			e.releaseSlot(en.slot)
			continue
		}
		kept = append(kept, en)
	}
	e.queue = kept
	// Floyd heapify: restore the 4-ary heap property bottom-up.
	if n := len(e.queue); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Timer is a value handle for a scheduled event; its only operation is
// Cancel. The zero Timer is valid and cancels nothing. Handles are
// generation-stamped: once the event fires (or the cancellation is
// collected), the underlying slot is recycled with a new generation, so
// a retained Timer stays inert instead of cancelling an unrelated
// later event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the event was
// still pending. Cancel is O(1): the entry is marked through its slot
// and skipped when it surfaces; when cancelled entries outnumber live
// ones the queue compacts itself.
func (t Timer) Cancel() bool {
	e := t.eng
	if e == nil {
		return false
	}
	sl := &e.slots[t.slot]
	if sl.state != slotLive || sl.gen != t.gen {
		return false
	}
	sl.state = slotCancelled
	e.cancelled++
	e.live--
	if e.obs != nil {
		e.obs.EventCancelled(e.now)
	}
	if len(e.queue) >= compactMin && e.cancelled > len(e.queue)/2 {
		e.compact()
	}
	return true
}
