package core

import (
	"testing"

	"nicbarrier/internal/sim"
)

// fakeBackend drives a Loop without a NIC model: every post completes
// on its own rank after a per-rank delay of rank+1 microseconds, so
// ranks drift apart unless the loop gates them.
type fakeBackend struct {
	eng   *sim.Engine
	l     Loop
	posts map[[2]int]int // (rank, seq) -> times posted
	order [][2]int       // (rank, seq) in post order
	// manual disables the automatic completions.
	manual bool
}

func newFake(size int, gated bool) *fakeBackend {
	f := &fakeBackend{eng: sim.NewEngine(), posts: map[[2]int]int{}}
	f.l.Init(f.eng, "test", size, gated, false, f.start)
	return f
}

func (f *fakeBackend) start(rank, seq int) {
	f.posts[[2]int{rank, seq}]++
	f.order = append(f.order, [2]int{rank, seq})
	if !f.manual {
		f.eng.After(sim.Micros(float64(rank+1)), func() { f.l.Complete(rank, seq) })
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestLoopGuards(t *testing.T) {
	manual := func(size int) *Loop {
		f := newFake(size, false)
		f.manual = true
		return &f.l
	}
	mustPanic(t, "Launch(0)", func() { manual(2).Launch(0) })
	mustPanic(t, "launch twice", func() {
		l := manual(2)
		l.Launch(1)
		l.Launch(1)
	})
	mustPanic(t, "launch after Close", func() {
		l := manual(2)
		l.Close()
		l.Launch(1)
	})
	mustPanic(t, "close twice", func() {
		l := manual(2)
		l.Close()
		l.Close()
	})
	mustPanic(t, "Close mid-run", func() {
		l := manual(2)
		l.Launch(1)
		l.Close()
	})
	mustPanic(t, "launch after Abort", func() {
		l := manual(2)
		l.Launch(2)
		if !l.Abort() {
			t.Error("Abort of a running loop reported no run")
		}
		l.Launch(1)
	})
	mustPanic(t, "Reset after Abort", func() {
		l := manual(2)
		l.Launch(2)
		l.Abort()
		l.Reset()
	})
	mustPanic(t, "Reset mid-run", func() {
		l := manual(2)
		l.Launch(1)
		l.Complete(0, 0)
		l.Reset()
	})
	mustPanic(t, "double completion", func() {
		l := manual(2)
		l.Launch(1)
		l.Complete(0, 0)
		l.Complete(1, 0)
		l.Complete(0, 0)
	})
	mustPanic(t, "completion beyond iters", func() {
		l := manual(2)
		l.Launch(1)
		l.Complete(0, 1)
	})

	// Idle and finished loops abort as a no-op and stay usable.
	l := manual(1)
	if l.Abort() {
		t.Error("Abort of an idle loop reported a run")
	}
	l.Launch(1)
	l.Complete(0, 0)
	if l.Abort() || l.aborted || !l.Done() {
		t.Error("Abort of a finished loop was not a no-op")
	}
	l.Reset()
	l.Close()
	if !l.closed {
		t.Error("Close did not mark the loop closed")
	}
}

// A completion callback that resets and relaunches the loop voids the
// old run's chained posts: every (rank, seq) is posted exactly once.
func TestLoopRelaunchFromCallback(t *testing.T) {
	for _, gated := range []bool{false, true} {
		f := newFake(3, gated)
		relaunched := false
		f.l.OnIterDone = func(iter int, _ sim.Time) {
			if !relaunched {
				relaunched = true
				f.l.Reset()
				f.l.Launch(3)
			}
		}
		f.l.Launch(1)
		if !f.eng.RunCondition(f.l.Done) {
			t.Fatalf("gated=%v: relaunched run never finished", gated)
		}
		f.eng.Run()
		if f.l.Base() != 1 || len(f.l.DoneAt()) != 3 {
			t.Fatalf("gated=%v: base %d, %d iterations; want 1, 3", gated, f.l.Base(), len(f.l.DoneAt()))
		}
		if len(f.order) != 3*4 {
			t.Errorf("gated=%v: %d posts, want 12", gated, len(f.order))
		}
		for key, n := range f.posts {
			if n != 1 {
				t.Errorf("gated=%v: rank %d posted seq %d %d times", gated, key[0], key[1], n)
			}
		}
	}
}

// Per-rank chaining lets a fast rank run ahead; gated chaining posts
// operation k+1 on every rank only once all ranks completed k.
func TestLoopChaining(t *testing.T) {
	perRank := newFake(3, false)
	perRank.l.Run(2)
	gated := newFake(3, true)
	gated.l.Run(2)

	// Rank 0 completes op 0 at 1us and posts op 1 at once; the gated
	// loop waits for rank 2's completion at 3us.
	if got := perRank.l.StartAt()[1]; got != sim.Time(0).Add(sim.Micros(1)) {
		t.Errorf("per-rank op 1 started at %v, want 1us", got)
	}
	if got := gated.l.StartAt()[1]; got != sim.Time(0).Add(sim.Micros(3)) {
		t.Errorf("gated op 1 started at %v, want 3us", got)
	}
	want := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i, p := range gated.order {
		if p != want[i] {
			t.Fatalf("gated post order %v, want %v", gated.order, want)
		}
	}
	// Both loops complete op k when the slowest rank does.
	for _, f := range []*fakeBackend{perRank, gated} {
		if got := f.l.DoneAt()[0]; got != sim.Time(0).Add(sim.Micros(3)) {
			t.Errorf("op 0 done at %v, want 3us", got)
		}
	}
	// Ops complete every 3us: at 3, 6 and 9us.
	if m := newFake(3, true).l.MeanLatency(1, 2); m != sim.Micros(3) {
		t.Errorf("gated mean latency %v, want 3us", m)
	}
}

// NextAt defers a post through the rank's allocation-free deferral
// record; Abort cancels it, and completions racing the abort are void.
func TestLoopAbortCancelsDeferral(t *testing.T) {
	f := newFake(2, false)
	f.l.NextAt = func(rank, next int) sim.Time {
		if next == 0 {
			return 0
		}
		return sim.Time(0).Add(sim.Micros(10))
	}
	f.l.Launch(2)
	if st := f.l.StartAt(); st[0] != 0 || st[1] != -1 {
		t.Fatalf("StartAt after Launch = %v, want [0 -1]", st)
	}
	// Rank 0 completes op 0 at 1us and defers op 1 to 10us; rank 1's
	// completion at 2us races the abort at 1.5us.
	f.eng.Schedule(sim.Time(0).Add(sim.Micros(1.5)), func() {
		if !f.l.Abort() {
			t.Error("Abort found no run in flight")
		}
	})
	f.eng.Run()
	if !f.l.aborted {
		t.Fatal("loop not aborted")
	}
	if f.posts[[2]int{0, 1}] != 0 || f.posts[[2]int{1, 1}] != 0 {
		t.Fatalf("deferred post fired after Abort: %v", f.order)
	}
	if f.l.DoneAt() != nil || f.l.StartAt() != nil {
		t.Fatal("Abort kept the run bookkeeping")
	}
}

// StartAt stamps the first post of each operation, including a post
// deferred by NextAt, and leaves later posts of the same op alone.
func TestLoopStartAt(t *testing.T) {
	f := newFake(2, false)
	f.l.NextAt = func(rank, next int) sim.Time {
		return sim.Time(0).Add(sim.Micros(float64(5 * next)))
	}
	f.l.Run(3)
	want := []sim.Time{0, sim.Time(0).Add(sim.Micros(5)), sim.Time(0).Add(sim.Micros(10))}
	for i, at := range f.l.StartAt() {
		if at != want[i] {
			t.Fatalf("StartAt = %v, want %v", f.l.StartAt(), want)
		}
	}
	// Rank 1 posts op 2 at 10us and completes it 2us later.
	if got := f.l.DoneAt()[2]; got != sim.Time(0).Add(sim.Micros(12)) {
		t.Errorf("op 2 done at %v, want 12us", got)
	}
}
