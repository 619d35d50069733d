package sim

import "testing"

// BenchmarkEngineSchedule measures the schedule+fire round trip of a
// single event. The steady-state invariant is 0 allocs/op (gated in
// CI): the callback is hoisted out of the loop so the engine itself is
// the only thing on trial.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, fn)
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule+cancel round trip
// (the retransmission-timer pattern: armed every operation, almost
// always cancelled before firing).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.After(1000, fn)
		t.Cancel()
	}
}

// BenchmarkEngineDepth64 keeps 64 events pending so sift costs at a
// realistic queue depth are visible, not just the depth-1 happy path.
func BenchmarkEngineDepth64(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(Duration(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(65, fn)
		eng.Step()
	}
}

// BenchmarkEngineDepth4096 is BenchmarkEngineDepth64 at the pending
// depth the 2048-node lossy multi-tenant workload reaches (about 3,200
// events), where sift moves dominate the engine's cost.
func BenchmarkEngineDepth4096(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		eng.After(Duration(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(4097, fn)
		eng.Step()
	}
}
