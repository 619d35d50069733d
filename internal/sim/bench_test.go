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

// BenchmarkEngineDepth64 keeps 64 events pending so queue costs at a
// realistic depth are visible, not just the depth-1 happy path.
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
// events). Every event lands behind the last, so this is the calendar's
// best case; BenchmarkEngineHold16k is the realistic mix.
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

// BenchmarkEngineHold16k is the classic hold model at the pending depth
// of one shard of the 16,384-endpoint hierarchical barrier: 16,384
// events stay queued, and each iteration fires the earliest and
// schedules a replacement. Delays follow the bimodal mix measured on
// the lossy multi-tenant and hierarchical workloads: 97% are firmware
// and wire steps of 0.25–8 µs, 3% are NACK timers near 0.5 ms, and
// every fourth iteration disarms a timer armed 64 such iterations
// earlier and schedules a replacement, so the depth holds while about a
// fifth of the queued entries are cancelled ones waiting to surface.
func BenchmarkEngineHold16k(b *testing.B) {
	const depth = 16384
	rng := NewRNG(1)
	delays := make([]Duration, 4096)
	for i := range delays {
		if rng.Bool(0.03) {
			delays[i] = 500*Microsecond + Duration(rng.Intn(int(Microsecond)))
		} else {
			delays[i] = 250 + Duration(rng.Intn(int(7750*Nanosecond)))
		}
	}
	eng := NewEngine()
	fn := func() {}
	armed := make([]Timer, 64)
	hold := func(i int) {
		eng.Step()
		t := eng.After(delays[i%len(delays)], fn)
		if i%4 == 0 {
			if armed[i/4%len(armed)].Cancel() {
				eng.After(delays[(i+1)%len(delays)], fn)
			}
			armed[i/4%len(armed)] = t
		}
	}
	for i := 0; i < depth; i++ {
		eng.After(delays[i%len(delays)], fn)
	}
	for i := 0; i < 4*depth; i++ { // reach the steady mix
		hold(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hold(i)
	}
	b.StopTimer()
	if eng.Pending() != depth {
		b.Fatalf("pending %d, want %d", eng.Pending(), depth)
	}
}
