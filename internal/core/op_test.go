package core

import (
	"slices"
	"testing"
	"testing/quick"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/sim"
)

func mustStart(t *testing.T, o *OpState, seq int) (sends []int, completed bool) {
	t.Helper()
	sends, completed, err := o.Start(seq)
	if err != nil {
		t.Fatal(err)
	}
	return sends, completed
}

func mustArrive(t *testing.T, o *OpState, seq, from int) (sends []int, completed bool) {
	t.Helper()
	sends, completed, err := o.Arrive(seq, from)
	if err != nil {
		t.Fatal(err)
	}
	return sends, completed
}

func TestOpSingletonCompletesAtStart(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 1, 0, barrier.Options{}))
	sends, completed := mustStart(t, o, 0)
	if len(sends) != 0 || !completed {
		t.Fatalf("sends=%v completed=%v", sends, completed)
	}
	if o.Active() {
		t.Fatal("still active")
	}
}

func TestOpDisseminationTwoRanks(t *testing.T) {
	// n=2: each rank sends one message and waits for one.
	o := NewOpState(barrier.New(barrier.Dissemination, 2, 0, barrier.Options{}))
	sends, completed := mustStart(t, o, 0)
	if len(sends) != 1 || sends[0] != 1 || completed {
		t.Fatalf("start: sends=%v completed=%v", sends, completed)
	}
	if got := o.AppendMissing(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("missing = %v", got)
	}
	sends, completed = mustArrive(t, o, 0, 1)
	if len(sends) != 0 || !completed {
		t.Fatalf("arrive: sends=%v completed=%v", sends, completed)
	}
	if o.AppendMissing(nil) != nil {
		t.Fatalf("missing after completion: %v", o.AppendMissing(nil))
	}
}

func TestOpDisseminationCascade(t *testing.T) {
	// n=4 rank 0: step m sends to (0+2^m)%4, waits on (0-2^m)%4:
	// step 0: send 1 wait 3; step 1: send 2 wait 2.
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	sends, _ := mustStart(t, o, 0)
	if len(sends) != 1 || sends[0] != 1 {
		t.Fatalf("start sends %v", sends)
	}
	// Step-1 wait arrives early: no progress yet.
	sends, completed := mustArrive(t, o, 0, 2)
	if len(sends) != 0 || completed {
		t.Fatalf("early arrival unblocked: %v %v", sends, completed)
	}
	if o.Step() != 0 {
		t.Fatalf("step = %d", o.Step())
	}
	// Step-0 wait arrives: both steps unblock, send to 2 fires, complete.
	sends, completed = mustArrive(t, o, 0, 3)
	if len(sends) != 1 || sends[0] != 2 || !completed {
		t.Fatalf("cascade: sends=%v completed=%v", sends, completed)
	}
}

func TestOpHasSent(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	if o.HasSent(0, 1) {
		t.Fatal("HasSent before start")
	}
	mustStart(t, o, 0)
	if !o.HasSent(0, 1) {
		t.Fatal("step-0 send not recorded")
	}
	if o.HasSent(0, 2) {
		t.Fatal("step-1 send recorded before step started")
	}
	if o.HasSent(0, 3) {
		t.Fatal("HasSent to a rank never sent to")
	}
	mustArrive(t, o, 0, 3)
	mustArrive(t, o, 0, 2)
	// Completed: everything sent.
	if !o.HasSent(0, 1) || !o.HasSent(0, 2) {
		t.Fatal("HasSent after completion")
	}
	if o.HasSent(1, 1) {
		t.Fatal("HasSent for future op")
	}
}

func TestOpEarlyBufferAcrossOps(t *testing.T) {
	// Rank 0, n=2, consecutive barriers: peer's message for op 1 arrives
	// while op 0 is still active.
	o := NewOpState(barrier.New(barrier.Dissemination, 2, 0, barrier.Options{}))
	mustStart(t, o, 0)
	if sends, completed := mustArrive(t, o, 1, 1); len(sends) != 0 || completed {
		t.Fatalf("future arrival acted on: %v %v", sends, completed)
	}
	if _, completed := mustArrive(t, o, 0, 1); !completed {
		t.Fatal("op 0 did not complete")
	}
	// Op 1 starts with the buffered arrival already in: completes on the
	// spot after issuing its send.
	sends, completed := mustStart(t, o, 1)
	if len(sends) != 1 || !completed {
		t.Fatalf("op 1 with buffered arrival: sends=%v completed=%v", sends, completed)
	}
}

func TestOpDuplicateAndStale(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 2, 0, barrier.Options{}))
	mustStart(t, o, 0)
	mustArrive(t, o, 0, 1)
	// Duplicate of a completed op: stale.
	mustArrive(t, o, 0, 1)
	if o.Stale != 1 {
		t.Fatalf("stale = %d", o.Stale)
	}
	mustStart(t, o, 1)
	mustArrive(t, o, 1, 1)
	if o.Duplicates != 0 {
		t.Fatalf("duplicates = %d", o.Duplicates)
	}
	// Op 1 completed; op 2 not started. A retransmit for op 2 buffers,
	// then its duplicate counts.
	mustArrive(t, o, 2, 1)
	mustArrive(t, o, 2, 1)
	if o.Duplicates != 1 {
		t.Fatalf("duplicates = %d", o.Duplicates)
	}
}

func TestOpErrors(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	if _, _, err := o.Start(1); err == nil {
		t.Error("Start(1) before Start(0) accepted")
	}
	mustStart(t, o, 0)
	if _, _, err := o.Start(1); err == nil {
		t.Error("Start while active accepted")
	}
	if _, _, err := o.Arrive(0, 1); err == nil {
		t.Error("arrival from rank never waited on accepted")
	}
	if _, _, err := o.Arrive(2, 3); err == nil {
		t.Error("impossible lookahead accepted")
	}
}

// driveGroup runs a full group of OpStates against each other with a
// deterministic random delivery order, optionally dropping each message
// once (recovered via the NACK path). Returns false on any failure.
func driveGroup(alg barrier.Algorithm, n int, ops int, seed uint64, lossRate float64) bool {
	rng := sim.NewRNG(seed)
	states := make([]*OpState, n)
	for r := 0; r < n; r++ {
		states[r] = NewOpState(barrier.New(alg, n, r, barrier.Options{}))
	}
	type msg struct{ seq, from, to int }
	var inflight []msg

	completed := make([]int, n) // next op to complete per rank

	send := func(seq, from int, tos []int) {
		for _, to := range tos {
			inflight = append(inflight, msg{seq, from, to})
		}
	}
	for op := 0; op < ops; op++ {
		for r := 0; r < n; r++ {
			sends, done, err := states[r].Start(op)
			if err != nil {
				return false
			}
			send(op, r, sends)
			if done {
				completed[r]++
			}
		}
		// Deliver until the op completes everywhere. Lost messages are
		// re-sent by consulting HasSent, mimicking the NACK path.
		for {
			allDone := true
			for r := 0; r < n; r++ {
				if completed[r] <= op {
					allDone = false
				}
			}
			if allDone {
				break
			}
			if len(inflight) == 0 {
				// Deadlock: recover every missing message via NACK.
				for r := 0; r < n; r++ {
					for _, from := range states[r].AppendMissing(nil) {
						if states[from].HasSent(states[r].Seq(), r) {
							inflight = append(inflight, msg{states[r].Seq(), from, r})
						}
					}
				}
				if len(inflight) == 0 {
					return false // true deadlock
				}
			}
			i := rng.Intn(len(inflight))
			m := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			if rng.Bool(lossRate) {
				continue // dropped; NACK path will recover
			}
			sends, done, err := states[m.to].Arrive(m.seq, m.from)
			if err != nil {
				return false
			}
			send(states[m.to].Seq(), m.to, sends)
			if done {
				completed[m.to]++
			}
		}
	}
	return true
}

func TestOpGroupExecutionAllAlgorithms(t *testing.T) {
	for _, alg := range []barrier.Algorithm{
		barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast,
	} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 33} {
			if !driveGroup(alg, n, 4, 42, 0) {
				t.Fatalf("%v n=%d failed", alg, n)
			}
		}
	}
}

func TestOpGroupExecutionWithLoss(t *testing.T) {
	for _, alg := range []barrier.Algorithm{
		barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast,
	} {
		for _, n := range []int{2, 5, 8, 12} {
			if !driveGroup(alg, n, 3, 7, 0.3) {
				t.Fatalf("%v n=%d with loss failed", alg, n)
			}
		}
	}
}

// Property: random (algorithm, size, seed, loss) always completes.
func TestOpGroupProperty(t *testing.T) {
	f := func(algRaw, nRaw uint8, seed uint64, lossRaw uint8) bool {
		alg := barrier.Algorithm(int(algRaw) % 3)
		n := int(nRaw)%24 + 1
		loss := float64(lossRaw%50) / 100
		return driveGroup(alg, n, 3, seed, loss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Missing lists ranks in ExpectedArrivals order, which is the order the
// NACKs go out in; the order must not depend on the lookup layout.
func TestOpMissingInExpectedArrivalsOrder(t *testing.T) {
	sched := barrier.New(barrier.Dissemination, 8, 0, barrier.Options{})
	want := sched.ExpectedArrivals() // 7, 6, 4: not ascending
	o := NewOpState(sched)
	mustStart(t, o, 0)
	if got := o.AppendMissing(nil); !slices.Equal(got, want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	mustArrive(t, o, 0, want[1])
	if got, rest := o.AppendMissing(nil), []int{want[0], want[2]}; !slices.Equal(got, rest) {
		t.Fatalf("Missing = %v, want %v", got, rest)
	}
}

// A duplicate early arrival counts once as a duplicate, and Start
// replays the early set into the new operation.
func TestOpEarlyDuplicateAndReplay(t *testing.T) {
	// n=4 rank 0: step 0 sends 1, waits 3; step 1 sends 2, waits 2.
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	mustStart(t, o, 0)
	mustArrive(t, o, 1, 2)
	mustArrive(t, o, 1, 2)
	if o.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", o.Duplicates)
	}
	mustArrive(t, o, 0, 3)
	if _, completed := mustArrive(t, o, 0, 2); !completed {
		t.Fatal("op 0 did not complete")
	}
	sends, completed := mustStart(t, o, 1)
	if !slices.Equal(sends, []int{1}) || completed {
		t.Fatalf("Start(1): sends=%v completed=%v", sends, completed)
	}
	if got := o.AppendMissing(nil); !slices.Equal(got, []int{3}) {
		t.Fatalf("Missing after replay = %v, want [3]", got)
	}
	if sends, completed := mustArrive(t, o, 1, 3); !slices.Equal(sends, []int{2}) || !completed {
		t.Fatalf("Arrive: sends=%v completed=%v", sends, completed)
	}
}

// Abort discards buffered early arrivals: nothing of the abandoned
// sequence leaks into a later Start.
func TestOpAbortClearsEarly(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	mustStart(t, o, 0)
	mustArrive(t, o, 1, 3)
	o.Abort()
	if o.Active() || o.AppendMissing(nil) != nil {
		t.Fatalf("active=%v missing=%v after Abort", o.Active(), o.AppendMissing(nil))
	}
	mustStart(t, o, 1)
	if got := o.AppendMissing(nil); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("Missing = %v, want [3 2]: the early arrival survived Abort", got)
	}
}

// HasSent is false, in every phase, for a rank the schedule never sends
// to, and for ranks outside the group.
func TestOpHasSentNeverSentRank(t *testing.T) {
	o := NewOpState(barrier.New(barrier.Dissemination, 4, 0, barrier.Options{}))
	never := []int{0, 3, -1, 4, 1 << 20}
	check := func(phase string) {
		for _, r := range never {
			for seq := -1; seq <= 2; seq++ {
				if o.HasSent(seq, r) {
					t.Fatalf("%s: HasSent(%d, %d) = true", phase, seq, r)
				}
			}
		}
	}
	check("before start")
	mustStart(t, o, 0)
	check("active")
	mustArrive(t, o, 0, 3)
	mustArrive(t, o, 0, 2)
	check("completed")
}

func TestOpConstructorPanics(t *testing.T) {
	for name, steps := range map[string][]barrier.Step{
		"waits twice": {{Wait: []int{1}}, {Send: []int{2}, Wait: []int{3, 1}}},
		"sends twice": {{Send: []int{1, 2}}, {Send: []int{2}, Wait: []int{3}}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			NewOpState(barrier.Schedule{N: 4, Rank: 0, Steps: steps})
		})
	}
}

// NewOpState's allocation count does not depend on the group size, so
// no per-peer map or rank-indexed table can creep back in.
func TestOpStateAllocsIndependentOfGroupSize(t *testing.T) {
	allocs := func(n int) float64 {
		sched := barrier.New(barrier.Dissemination, n, n/3, barrier.Options{})
		return testing.AllocsPerRun(20, func() { NewOpState(sched) })
	}
	small, large := allocs(16), allocs(8192)
	if small != large {
		t.Fatalf("NewOpState allocates %.0f objects at 16 ranks, %.0f at 8192", small, large)
	}
}

// An in-order operation issues one step's sends per call, and those are
// returned without a copy.
func TestOpInOrderOperationZeroAlloc(t *testing.T) {
	sched := barrier.New(barrier.Dissemination, 8192, 0, barrier.Options{})
	o := NewOpState(sched)
	from := sched.ExpectedArrivals()
	seq := 0
	allocs := testing.AllocsPerRun(100, func() {
		runInOrder(o, seq, from)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("in-order operation allocates %.1f objects, want 0", allocs)
	}
}

// runInOrder starts operation seq and delivers every expected arrival
// in schedule order; it panics unless that completes the operation.
func runInOrder(o *OpState, seq int, from []int) {
	if _, _, err := o.Start(seq); err != nil {
		panic(err)
	}
	completed := false
	for _, r := range from {
		var err error
		if _, completed, err = o.Arrive(seq, r); err != nil {
			panic(err)
		}
	}
	if !completed {
		panic("in-order operation did not complete")
	}
}

// BenchmarkOpStateArrive runs one full in-order operation of one rank
// of an 8,192-rank dissemination schedule per iteration: a Start and
// 13 Arrives. The steady state is 0 allocs/op (gated in CI).
func BenchmarkOpStateArrive(b *testing.B) {
	sched := barrier.New(barrier.Dissemination, 8192, 0, barrier.Options{})
	o := NewOpState(sched)
	from := sched.ExpectedArrivals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runInOrder(o, i, from)
	}
}
