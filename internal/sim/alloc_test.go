package sim

import "testing"

// The zero-allocation steady state is a regression-testable invariant,
// not just a benchmark property: paper-fidelity runs schedule hundreds
// of millions of events, and a single stray allocation per event hands
// the run back to the garbage collector.

func TestEngineScheduleZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ { // warm the queue and slot arrays
		eng.After(1, fn)
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineCancelZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ {
		eng.After(1000, fn).Cancel()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1000, fn).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineScheduleEventZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 128; i++ {
		eng.AfterEvent(1, ev)
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterEvent(1, ev)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("pooled-event schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// Resizing the calendar relinks entries into its reused bucket array, so
// a warmed engine driven through the same grow, compact and shrink cycle
// again allocates nothing: a resize that allocated would show up in the
// simulator's allocations per operation without failing any other gate.
func TestEngineResizeZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	timers := make([]Timer, 4096)
	runs := uint64(0)
	cycle := func() {
		runs++
		for i := range timers { // 2 buckets grow to 2,048
			timers[i] = eng.After(Duration(250+i*37%8000), fn)
		}
		for i := range timers { // three quarters cancelled: compaction
			if i%4 != 0 {
				timers[i].Cancel()
			}
		}
		eng.Run() // the drain shrinks the calendar back to 2 buckets
	}
	cycle()
	before, runs := eng.QueueStats(), 0
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("grow/compact/shrink cycle allocates %.1f objects, want 0", allocs)
	}
	after := eng.QueueStats()
	// 2 to 2,048 buckets is ten doublings, and back ten halvings.
	grows, shrinks := (after.Grows-before.Grows)/runs, (after.Shrinks-before.Shrinks)/runs
	if grows != 10 || shrinks != 10 {
		t.Fatalf("per cycle: %d grows, %d shrinks; want 10 each", grows, shrinks)
	}
	if after.Compactions-before.Compactions < runs {
		t.Fatalf("%d compactions in %d cycles; want at least one each", after.Compactions-before.Compactions, runs)
	}
	if after.PendingMax != len(timers) || after.Buckets != minBuckets {
		t.Fatalf("PendingMax %d, Buckets %d; want %d, %d", after.PendingMax, after.Buckets, len(timers), minBuckets)
	}
}
