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
// has no heap, no slots and no compaction, so it is obviously right.
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

// FuzzEngineOrder drives the engine and the reference model with the
// same random interleaving of Schedule, ScheduleEvent, Cancel, Step,
// RunUntil and NextAt, and checks that both fire the same events in the
// same order with the same Pending and Now after every operation.
// Handles are kept after their events fire or are cancelled, so double
// and stale cancels across slot reuse are exercised; a burst operation
// pushes the queue past compactMin so cancels trigger compaction; and
// some events schedule a child from inside their callback.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 4, 4, 4})
	f.Add([]byte{2, 5, 1, 0, 0, 0, 3, 0, 3, 0, 4, 4, 0, 2, 3, 2, 4, 3, 2})
	f.Add([]byte{7, 9, 3, 10, 3, 20, 3, 30, 6, 4, 5, 12, 0, 1, 3, 5, 4})
	f.Add(append(bytes.Repeat([]byte{0, 1}, 3), bytes.Repeat([]byte{3, 7}, 40)...))
	f.Add([]byte{7, 1, 4, 0, 7, 2, 3, 5, 3, 5, 5, 31, 6, 0, 7, 3})
	f.Add([]byte("702070")) // two compactions: fails without the re-heapify
	f.Add([]byte{2, 0, 0, 0, 4, 3, 0, 3, 1, 0, 0, 4, 3, 0, 3, 2, 6, 5, 255})
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

		arg := func(i int) int {
			if i < len(prog) {
				return int(prog[i])
			}
			return 0
		}
		for pc := 0; pc < len(prog); pc += 2 {
			a := arg(pc + 1)
			switch prog[pc] % 8 {
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
				deadline := e.Now().Add(Duration(a % 32))
				for ev, ok := m.next(); ok && ev.at <= deadline; ev, ok = m.next() {
					m.step()
				}
				drained := len(m.pending) == 0
				m.now = max(m.now, deadline)
				if got := e.RunUntil(deadline); got != drained {
					t.Fatalf("op %d: RunUntil = %v, model %v", pc, got, drained)
				}
			case 6:
				at, ok := e.NextAt()
				ev, want := m.next()
				if ok != want || ok && at != ev.at {
					t.Fatalf("op %d: NextAt = %v,%v, model %v,%v", pc, at, ok, ev.at, want)
				}
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
			}
			if e.Pending() != len(m.pending) || e.Now() != m.now {
				t.Fatalf("op %d: Pending/Now = %d/%v, model %d/%v", pc, e.Pending(), e.Now(), len(m.pending), m.now)
			}
			checkFreeSlotsClear(t, e)
		}
		e.Run()
		for m.step() {
		}
		if !slices.Equal(fired, m.fired) {
			t.Fatalf("fired %v, model %v", fired, m.fired)
		}
		if e.Pending() != 0 || len(e.queue) != 0 || e.Now() != m.now {
			t.Fatalf("after drain: Pending %d, queue %d, Now %v (model %v)", e.Pending(), len(e.queue), e.Now(), m.now)
		}
		checkFreeSlotsClear(t, e)
	})
}
