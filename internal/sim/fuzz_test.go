package sim

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
)

// refEvent is one scheduled event of the reference model.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	child Duration // delay of the event its firing schedules; -1 for none
}

func cmpRef(a, b refEvent) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// refEngine is the reference model FuzzEngineOrder checks the engine
// against: the pending events in a slice kept sorted by (at, seq). It
// has no buckets, no slots and no compaction, so it is obviously right.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent // sorted by (at, seq)
	events  []refEvent // every event ever scheduled, indexed by id
	fired   []int
}

func (m *refEngine) schedule(at Time, child Duration) {
	ev := refEvent{at: at, seq: m.seq, id: len(m.events), child: child}
	m.seq++
	m.events = append(m.events, ev)
	i, _ := slices.BinarySearchFunc(m.pending, ev, cmpRef)
	m.pending = slices.Insert(m.pending, i, ev)
}

// cancel removes event id, reporting whether it was still pending.
func (m *refEngine) cancel(id int) bool {
	i, ok := slices.BinarySearchFunc(m.pending, m.events[id], cmpRef)
	if ok {
		m.pending = slices.Delete(m.pending, i, i+1)
	}
	return ok
}

// next returns the earliest pending event.
func (m *refEngine) next() (refEvent, bool) {
	if len(m.pending) == 0 {
		return refEvent{}, false
	}
	return m.pending[0], true
}

func (m *refEngine) step() bool {
	ev, ok := m.next()
	if !ok {
		return false
	}
	m.pending = slices.Delete(m.pending, 0, 1)
	m.now = ev.at
	m.fired = append(m.fired, ev.id)
	if ev.child >= 0 {
		m.schedule(m.now.Add(ev.child), -1)
	}
	return true
}

// fuzzEvent is the pooled-Event flavour of a fuzzed callback.
type fuzzEvent struct{ fire func() }

func (f *fuzzEvent) Fire() { f.fire() }

// checkFreeSlotsClear fails when a free slot still references a
// callback: a forgotten clear would keep whatever the closure captured
// (a whole simulated cluster) alive.
func checkFreeSlotsClear(t *testing.T, e *Engine) {
	t.Helper()
	for i, sl := range e.slots {
		if sl.state == slotFree && (sl.fn != nil || sl.ev != nil) {
			t.Fatalf("free slot %d still holds a callback", i)
		}
	}
}

// checkQueue fails when the calendar breaks an invariant its pop scan
// relies on: every bucket sorted by (at, seq) and holding only its own
// days, no entry on a day before the cursor, the lists agreeing with
// the counters, and the ring a power of two at most two entries per
// bucket full.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	nb := len(e.buckets)
	if nb != 0 && (nb < minBuckets || nb&(nb-1) != 0) || e.size > 2*nb {
		t.Fatalf("%d buckets for %d entries", nb, e.size)
	}
	n, cancelled := 0, 0
	for i, b := range e.buckets {
		prev := int32(-1)
		for s := b.head; s >= 0; s = e.entries[s].next {
			en := e.entries[s]
			day := uint64(en.at) >> e.shift
			switch {
			case day%uint64(nb) != uint64(i):
				t.Fatalf("entry at %v (day %d) in bucket %d of %d", en.at, day, i, nb)
			case day < e.cur:
				t.Fatalf("entry at %v on day %d, before the cursor's day %d", en.at, day, e.cur)
			case prev >= 0 && !e.entries[prev].before(en):
				t.Fatalf("bucket %d out of (at, seq) order at %v", i, en.at)
			case e.slots[s].state == slotFree:
				t.Fatalf("queued entry at %v holds a free slot", en.at)
			}
			if e.slots[s].state == slotCancelled {
				cancelled++
			}
			prev = s
			n++
		}
		if b.tail != prev {
			t.Fatalf("bucket %d tail %d, last entry %d", i, b.tail, prev)
		}
	}
	if n != e.size || cancelled != e.cancelled || n-cancelled != e.live {
		t.Fatalf("lists hold %d entries (%d cancelled); counters say %d (%d cancelled, %d live)",
			n, cancelled, e.size, e.cancelled, e.live)
	}
	if st := e.QueueStats(); st.PendingMax < e.live || st.Buckets != nb {
		t.Fatalf("stats %+v with %d pending in %d buckets", st, e.live, nb)
	}
}

// FuzzEngineOrder drives the engine and the reference model with the
// same random interleaving of Schedule, ScheduleEvent, Cancel, Step,
// RunUntil and NextAt, and checks that both fire the same events in the
// same order with the same Pending and Now after every operation, and
// that the calendar's invariants hold (checkQueue). Handles are kept
// after their events fire or are cancelled, so double and stale
// cancels across slot reuse are exercised; a burst operation pushes the
// queue past compactMin so cancels trigger compaction; some events
// schedule a child from inside their callback. Three operations aim at
// the calendar: timers up to 2^20 ns out, years past the front as NACK
// timers are; a burst that grows the ring and is drained until it
// shrinks; and RunUntil, NextAt, then an event before the one NextAt
// found, which is how the shard runner makes the cursor rewind.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 4, 4, 4})
	f.Add([]byte{2, 5, 1, 0, 0, 0, 3, 0, 3, 0, 4, 4, 0, 2, 3, 2, 4, 3, 2})
	f.Add([]byte{7, 9, 3, 10, 3, 20, 3, 30, 6, 4, 5, 12, 0, 1, 3, 5, 4})
	f.Add(append(bytes.Repeat([]byte{0, 1}, 3), bytes.Repeat([]byte{3, 7}, 40)...))
	f.Add([]byte{7, 1, 4, 0, 7, 2, 3, 5, 3, 5, 5, 31, 6, 0, 7, 3})
	f.Add([]byte{7, '0', 2, '0', 7, '0'}) // two compactions in a row
	f.Add([]byte{2, 0, 0, 0, 4, 3, 0, 3, 1, 0, 0, 4, 3, 0, 3, 2, 6, 5, 7})
	f.Add([]byte{8, 200, 0, 3, 8, 17, 4, 0, 8, 255, 5, 31, 3, 1, 4, 0, 6, 0, 4, 0})
	f.Add([]byte{0, 5, 8, 40, 9, 0, 3, 1, 9, 255, 6, 0, 4, 0})
	f.Add([]byte{0, 2, 8, 9, 0, 40, 10, 5, 4, 0, 10, 1, 6, 0, 10, 30, 4, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 9, 0, 5}) // a tie inserted mid-bucket
	f.Fuzz(func(t *testing.T, prog []byte) {
		// Longer programs add time, not coverage.
		if len(prog) > 256 {
			prog = prog[:256]
		}
		e := NewEngine()
		m := &refEngine{}
		var timers []Timer
		var fired []int

		// newCallback returns the engine-side action of event id: log
		// it and, like the model, schedule its child.
		var schedule func(at Time, child Duration, asEvent bool)
		newCallback := func(id int, child Duration) func() {
			return func() {
				fired = append(fired, id)
				if child >= 0 {
					schedule(e.Now().Add(child), -1, id%2 == 0)
				}
			}
		}
		schedule = func(at Time, child Duration, asEvent bool) {
			fn := newCallback(len(timers), child)
			if asEvent {
				timers = append(timers, e.ScheduleEvent(at, &fuzzEvent{fn}))
			} else {
				timers = append(timers, e.Schedule(at, fn))
			}
		}
		both := func(at Time, child Duration, asEvent bool) {
			schedule(at, child, asEvent)
			m.schedule(at, child)
		}
		cancel := func(i int) {
			if got, want := timers[i].Cancel(), m.cancel(i); got != want {
				t.Fatalf("Cancel(%d) = %v, model %v", i, got, want)
			}
		}

		runUntil := func(pc int, deadline Time) {
			for ev, ok := m.next(); ok && ev.at <= deadline; ev, ok = m.next() {
				m.step()
			}
			drained := len(m.pending) == 0
			m.now = max(m.now, deadline)
			if got := e.RunUntil(deadline); got != drained {
				t.Fatalf("op %d: RunUntil = %v, model %v", pc, got, drained)
			}
		}
		nextAt := func(pc int) {
			at, ok := e.NextAt()
			ev, want := m.next()
			if ok != want || ok && at != ev.at {
				t.Fatalf("op %d: NextAt = %v,%v, model %v,%v", pc, at, ok, ev.at, want)
			}
		}

		arg := func(i int) int {
			if i < len(prog) {
				return int(prog[i])
			}
			return 0
		}
		for pc := 0; pc < len(prog); pc += 2 {
			a := arg(pc + 1)
			switch prog[pc] % 11 {
			case 0: // a small delay range makes same-instant ties common
				both(e.Now().Add(Duration(a%16)), -1, false)
			case 1:
				both(e.Now().Add(Duration(a%16)), -1, true)
			case 2:
				both(e.Now().Add(Duration(a%8)), Duration(a/8%8), a&64 != 0)
			case 3:
				if len(timers) > 0 {
					cancel(a % len(timers))
				}
			case 4:
				if got, want := e.Step(), m.step(); got != want {
					t.Fatalf("op %d: Step = %v, model %v", pc, got, want)
				}
			case 5:
				runUntil(pc, e.Now().Add(Duration(a%32)))
			case 6:
				nextAt(pc)
			case 7: // a burst, three quarters cancelled: the queue compacts
				first := len(timers)
				for i := 0; i < compactMin+8; i++ {
					both(e.Now().Add(Duration((i*7+a)%32)), -1, i%3 == 0)
				}
				for i := first; i < len(timers); i++ {
					if i%4 != a%4 {
						cancel(i)
					}
				}
			case 8: // a timer up to 2^20 ns out, many calendar years ahead
				both(e.Now().Add(Duration(a)<<12|Duration(a%16)), -1, a&1 != 0)
			case 9: // grow the ring, then drain it until it shrinks
				n, nb, grows, shrinks := 128+2*a, len(e.buckets), e.stats.Grows, e.stats.Shrinks
				for i := 0; i < n; i++ {
					d := Duration((i*7919 + a) % 4096)
					if i%32 == 0 {
						d <<= 8
					}
					both(e.Now().Add(d), -1, i%3 == 0)
				}
				if n > 2*nb && e.stats.Grows == grows {
					t.Fatalf("op %d: a burst of %d events never grew %d buckets", pc, n, nb)
				}
				for len(m.pending) > 2 {
					if got, want := e.Step(), m.step(); got != want {
						t.Fatalf("op %d: Step = %v, model %v", pc, got, want)
					}
				}
				if e.size < len(e.buckets)/4 && e.stats.Shrinks == shrinks {
					t.Fatalf("op %d: drained to %d entries in %d buckets without a shrink", pc, e.size, len(e.buckets))
				}
			case 10: // the shard runner's window end: RunUntil, NextAt,
				// then an event before the one NextAt found
				runUntil(pc, e.Now().Add(Duration(a%32)))
				nextAt(pc)
				both(e.Now().Add(Duration(a%4)), -1, a&1 != 0)
			}
			if e.Pending() != len(m.pending) || e.Now() != m.now {
				t.Fatalf("op %d: Pending/Now = %d/%v, model %d/%v", pc, e.Pending(), e.Now(), len(m.pending), m.now)
			}
			checkFreeSlotsClear(t, e)
			checkQueue(t, e)
		}
		e.Run()
		for m.step() {
		}
		if !slices.Equal(fired, m.fired) {
			t.Fatalf("fired %v, model %v", fired, m.fired)
		}
		if e.Pending() != 0 || e.size != 0 || e.Now() != m.now {
			t.Fatalf("after drain: Pending %d, queue %d, Now %v (model %v)", e.Pending(), e.size, e.Now(), m.now)
		}
		checkFreeSlotsClear(t, e)
		checkQueue(t, e)
	})
}
