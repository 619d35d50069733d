package sim

import (
	"fmt"
	"math/bits"
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

// Nop is the Event that does nothing when it fires: the end of work that
// only occupies a simulated resource, such as a firmware processor
// writing a table entry.
var Nop Event = nop{}

type nop struct{}

func (nop) Fire() {}

// entry is the queue record of one scheduled occurrence. Entries live
// in a table indexed by slot (the slot holds the callback and backs the
// Timer), so an entry never moves while it is queued. It holds no
// pointers: relinking it writes plain words (no GC write barrier) and
// the collector never scans the queue.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	next int32  // slot of the next entry in the same bucket, -1 at the tail
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

// minBuckets is the smallest calendar: the queue never shrinks below
// it, and the first Schedule grows an empty engine to it.
const minBuckets = 2

// widthSamples is how many event gaps a resize needs to measure the
// bucket width (Brown's calendar queue samples 25 events).
const widthSamples = 25

// bucket is one day of the calendar: a list of entries linked through
// entry.next, sorted by (at, seq). An empty bucket has head == -1.
type bucket struct{ head, tail int32 }

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine. An Engine (and everything scheduled
// on it) belongs to a single goroutine.
//
// The queue is a calendar queue (Brown, CACM 1988): a power-of-two ring
// of buckets, each 2^shift ns of virtual time wide and holding its
// entries in a (at, seq)-sorted list linked by slot index. An event at
// time t belongs to day t>>shift, stored in bucket day mod len(buckets);
// a ring turn is a "year". Popping scans forward from the cursor day to
// the first bucket whose head falls in the day being scanned, so
// schedule and pop are O(1) when the width matches the spacing of the
// events; a full fruitless turn (everything is a year or more ahead)
// ends in the earliest bucket head it passed. The ring doubles when the
// queue holds more than two entries per bucket and halves below one per
// four, and every resize re-derives the width from the spacing of the
// events (see resize); a ring whose size holds steady is resized in
// place when a stale width makes it waste work (see popFirst).
// Callbacks are kept in a slot table with a free list, and the slot
// doubles as the Timer handle. Steady-state scheduling performs no heap
// allocation (the tables are reused, and a resize relinks entries in
// place), Cancel is O(1) (entries are marked through their slot and
// skipped when they surface), and the queue compacts itself when
// cancelled entries outnumber live ones.
type Engine struct {
	now     Time
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
	// size counts queued entries, cancelled ones included.
	size     int
	slots    []slot
	entries  []entry // indexed by slot, like slots
	freeSlot int32   // head of the slot free list, -1 when empty
	buckets  []bucket
	shift    uint // bucket width is 1<<shift ns
	// cur is the day the pop scan stands on. Every queued entry's day
	// is >= cur: a Schedule earlier than cur rewinds it, because NextAt
	// may have advanced it past Now.
	cur uint64
	// mark and markAt are executed and now when resize last measured
	// the event separation.
	mark   uint64
	markAt Time
	// wasted counts the empty buckets the pop scan stepped over and the
	// entries inserts walked past since the last resize.
	wasted int
	stats  QueueStats
	// obs, when non-nil, is notified of every event firing and
	// cancellation. The disabled cost is one nil check per event.
	obs EventObserver
}

// QueueStats are host-side counters of the event queue's own work.
// They describe how the simulator ran, not what it simulated: no
// simulated logic reads them, and two engines that fire the same
// events report the same simulated results whatever these say.
type QueueStats struct {
	// PendingMax is the high-water mark of Pending.
	PendingMax int
	// Compactions counts sweeps that removed cancelled entries because
	// they outnumbered live ones.
	Compactions uint64
	// Grows and Shrinks count calendar resizes (the bucket count
	// doubling and halving); Rewidths counts same-size resizes that
	// re-measured the bucket width because pops and inserts were
	// wasting work on it (see popFirst).
	Grows, Shrinks, Rewidths uint64
	// Buckets is the current bucket count.
	Buckets int
	// BucketWidth is the current width of one bucket in virtual time.
	BucketWidth Duration
}

// QueueStats reports the queue counters.
func (e *Engine) QueueStats() QueueStats {
	s := e.stats
	s.Buckets = len(e.buckets)
	s.BucketWidth = Duration(1) << e.shift
	return s
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

// --- calendar queue over entries ---

// push queues the entry of slot s, growing the calendar first when it
// is full.
func (e *Engine) push(s int32) {
	if e.size >= 2*len(e.buckets) {
		if len(e.buckets) > 0 {
			e.stats.Grows++
		}
		e.resize(max(2*len(e.buckets), minBuckets))
	}
	e.link(s)
	e.size++
}

// link inserts the entry of slot s into its bucket. A new event is the
// newest seq, so it almost always goes after the bucket's tail; only an
// event earlier than the tail walks the list.
func (e *Engine) link(s int32) {
	en := &e.entries[s]
	day := uint64(en.at) >> e.shift
	// An empty queue's cursor is stale; an event before the cursor's
	// day (NextAt may have moved it past Now) rewinds it.
	if e.size == 0 || day < e.cur {
		e.cur = day
	}
	b := &e.buckets[day&uint64(len(e.buckets)-1)]
	switch {
	case b.head < 0:
		en.next = -1
		b.head, b.tail = s, s
	case !en.before(e.entries[b.tail]):
		en.next = -1
		e.entries[b.tail].next = s
		b.tail = s
	case en.before(e.entries[b.head]):
		en.next = b.head
		b.head = s
	default:
		p := b.head
		for e.entries[e.entries[p].next].before(*en) {
			p = e.entries[p].next
			e.wasted++
		}
		en.next = e.entries[p].next
		e.entries[p].next = s
	}
}

// first returns the slot of the minimum queued entry, or -1 when the
// queue is empty, leaving the cursor on its day.
func (e *Engine) first() int32 {
	if e.size == 0 {
		return -1
	}
	mask := uint64(len(e.buckets) - 1)
	m := int32(-1) // earliest head passed, for a fruitless turn
	for start := e.cur; e.cur-start < uint64(len(e.buckets)); e.cur++ {
		if h := e.buckets[e.cur&mask].head; h >= 0 {
			if uint64(e.entries[h].at)>>e.shift == e.cur {
				e.wasted += int(e.cur - start)
				return h
			}
			if m < 0 || e.entries[h].before(e.entries[m]) {
				m = h
			}
		}
	}
	// A fruitless turn: every entry is at least a year ahead, and m,
	// the earliest bucket head, is the minimum.
	e.wasted += len(e.buckets)
	e.cur = uint64(e.entries[m].at) >> e.shift
	return m
}

// popFirst unlinks s, which first just returned, and shrinks the
// calendar when it has become mostly empty. It also re-measures the
// width when the queue has been wasting work on it: more than four
// empty buckets scanned and entries walked past per event fired since
// the last measurement (twice what a fitting width costs: about one
// empty bucket per pop and one entry walked per insert), and more in
// all than a resize costs. A queue whose size holds steady never
// resizes, so without this a width fitted to one phase of a run (a
// burst of ties at time zero) would stay through every later one.
func (e *Engine) popFirst(s int32) {
	b := &e.buckets[e.cur&uint64(len(e.buckets)-1)]
	if b.head = e.entries[s].next; b.head < 0 {
		b.tail = -1
	}
	e.size--
	switch fired := e.executed - e.mark; {
	case len(e.buckets) > minBuckets && e.size < len(e.buckets)/4:
		e.stats.Shrinks++
		e.resize(len(e.buckets) / 2)
	case e.wasted > e.size+len(e.buckets) && uint64(e.wasted) > 4*fired && fired >= widthSamples:
		e.stats.Rewidths++
		e.resize(len(e.buckets))
	}
}

// resize rebuilds the calendar with nb buckets, dropping cancelled
// entries on the way. It chains the live entries through their next
// links, visiting the buckets from the cursor's onwards, which is time
// order within a year, and links them back into the new ring, so a
// resize is O(entries + buckets), mostly tail appends, and needs no
// buffer.
//
// It also re-derives the bucket width: the power of two above three
// times the mean separation of events, so that a bucket near the front
// holds about three events and a pop rarely scans an empty one. The
// separation is measured on the events fired since it was last
// measured: virtual time elapsed over events fired, ties included. The
// queue's contents alone mislead in bursty runs: right after a burst
// the earliest entries are that burst, far closer together than the
// stream that follows, and a width fitted to them turns most pops into
// fruitless turns. Far-future timers need no exclusion here, since they
// count only once they fire, as one gap. Before widthSamples events
// have fired (a burst scheduled before anything runs), the separation
// is Brown's: the mean gap between the earliest queued events,
// recomputed without the gaps over twice the mean. In between, when
// fewer than widthSamples events fired since the last measurement, the
// width stays.
func (e *Engine) resize(nb int) {
	chain, last := int32(-1), int32(-1)
	mask := uint64(len(e.buckets) - 1)
	for i := range uint64(len(e.buckets)) {
		for s := e.buckets[(e.cur+i)&mask].head; s >= 0; s = e.entries[s].next {
			switch {
			case e.slots[s].state == slotCancelled:
				e.cancelled--
				e.releaseSlot(s)
			case last < 0:
				chain, last = s, s
			default:
				e.entries[last].next = s
				last = s
			}
		}
	}
	if last >= 0 {
		e.entries[last].next = -1
	}
	if fired := e.executed - e.mark; fired >= widthSamples {
		e.shift = uint(bits.Len64(uint64(3 * (e.now - e.markAt) / Time(fired))))
		e.mark, e.markAt = e.executed, e.now
	} else if e.executed < widthSamples {
		e.brownWidth(chain)
	}
	if cap(e.buckets) >= nb {
		e.buckets = e.buckets[:nb]
	} else {
		e.buckets = make([]bucket, nb)
	}
	for i := range e.buckets {
		e.buckets[i] = bucket{-1, -1}
	}
	e.size = 0
	for s := chain; s >= 0; {
		next := e.entries[s].next
		e.link(s)
		e.size++
		s = next
	}
	e.wasted = 0
}

// brownWidth sets the width from the earliest widthSamples+1 entries of
// the chain, gathered in a sorted array on the stack.
func (e *Engine) brownWidth(chain int32) {
	var early [widthSamples + 1]Time
	n := 0
	for s := chain; s >= 0; s = e.entries[s].next {
		at := e.entries[s].at
		if n == len(early) {
			if at >= early[n-1] {
				continue
			}
			n--
		}
		i := n
		for ; i > 0 && early[i-1] > at; i-- {
			early[i] = early[i-1]
		}
		early[i] = at
		n++
	}
	if n < 2 {
		return
	}
	mean := (early[n-1] - early[0]) / Time(n-1)
	var sum, gaps Time
	for i := 1; i < n; i++ {
		if g := early[i] - early[i-1]; g <= 2*mean {
			sum += g
			gaps++
		}
	}
	e.shift = uint(bits.Len64(uint64(3 * sum / gaps)))
}

// --- Timer handle slots ---

func (e *Engine) acquireSlot() int32 {
	if s := e.freeSlot; s >= 0 {
		e.freeSlot = e.slots[s].next
		e.slots[s].state = slotLive
		return s
	}
	e.slots = append(e.slots, slot{state: slotLive})
	e.entries = append(e.entries, entry{})
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
	e.entries[s] = entry{at: at, seq: e.seq}
	e.push(s)
	e.seq++
	e.live++
	if e.live > e.stats.PendingMax {
		e.stats.PendingMax = e.live
	}
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
	for {
		s := e.first()
		if s < 0 {
			return false
		}
		e.popFirst(s)
		if e.slots[s].state == slotCancelled {
			e.cancelled--
			e.releaseSlot(s)
			continue
		}
		// Read the callback first: releasing clears the slot, which
		// the callback may then reuse.
		sl := &e.slots[s]
		fn, ev := sl.fn, sl.ev
		at := e.entries[s].at
		e.releaseSlot(s)
		e.now = at
		e.executed++
		e.live--
		if e.obs != nil {
			e.obs.EventFired(at)
		}
		if fn != nil {
			fn()
		} else {
			ev.Fire()
		}
		return true
	}
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
		at, ok := e.NextAt()
		if !ok {
			e.now = maxTime(e.now, deadline)
			return true
		}
		if at > deadline {
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
	for {
		s := e.first()
		if s < 0 {
			return 0, false
		}
		if e.slots[s].state != slotCancelled {
			return e.entries[s].at, true
		}
		e.popFirst(s)
		e.cancelled--
		e.releaseSlot(s)
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
	if e.size >= compactMin && e.cancelled > e.size/2 {
		// A same-size resize is the compaction: it drops every
		// cancelled entry.
		e.stats.Compactions++
		e.resize(len(e.buckets))
	}
	return true
}
