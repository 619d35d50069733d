package shard

import (
	"sync"
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

func TestPlanPartitionProperties(t *testing.T) {
	for _, tc := range []struct{ nodes, parts int }{
		{1, 1}, {7, 3}, {64, 4}, {64, 64}, {65536, 8}, {10, 16},
	} {
		p := NewPlan(tc.nodes, tc.parts)
		if p.Parts() > tc.nodes {
			t.Fatalf("%v: %d parts for %d nodes", tc, p.Parts(), tc.nodes)
		}
		covered := 0
		for s := 0; s < p.Parts(); s++ {
			lo, hi := p.Range(s)
			if hi <= lo {
				t.Fatalf("%v: empty shard %d [%d,%d)", tc, s, lo, hi)
			}
			if lo != covered {
				t.Fatalf("%v: shard %d starts at %d, want %d", tc, s, lo, covered)
			}
			covered = hi
			for n := lo; n < hi; n++ {
				if got := p.ShardOf(n); got != s {
					t.Fatalf("%v: ShardOf(%d) = %d, want %d", tc, n, got, s)
				}
			}
		}
		if covered != tc.nodes {
			t.Fatalf("%v: shards cover %d of %d nodes", tc, covered, tc.nodes)
		}
		// Sizes balanced within one node.
		min, max := tc.nodes, 0
		for s := 0; s < p.Parts(); s++ {
			if sz := p.Size(s); sz < min {
				min = sz
			} else if sz > max {
				max = sz
			}
		}
		if max > 0 && max-min > 1 {
			t.Fatalf("%v: shard sizes range %d..%d", tc, min, max)
		}
	}
}

func TestPlanHomeShard(t *testing.T) {
	p := NewPlan(16, 4)
	if got := p.HomeShard([]int{9, 2, 14}); got != 2 {
		t.Fatalf("HomeShard follows the root member: got %d, want 2", got)
	}
}

func TestQueueConcurrentPushDeterministicDrain(t *testing.T) {
	const producers, per = 8, 200
	var q Queue
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(Msg{From: from, At: sim.Time(i % 7), Seq: uint64(i)})
			}
		}(p)
	}
	wg.Wait()
	got := q.Drain(nil)
	if len(got) != producers*per {
		t.Fatalf("drained %d messages, want %d", len(got), producers*per)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.From > b.From ||
			(a.From == b.From && a.At > b.At) ||
			(a.From == b.From && a.At == b.At && a.Seq > b.Seq) {
			t.Fatalf("order violated at %d: %+v before %+v", i, a, b)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after drain")
	}
}

func TestMinCrossLatencyPositiveAndMonotone(t *testing.T) {
	params := hwprofile.LANaiXPCluster().Net
	ft := topo.MinFatTree(8, 64)
	p := NewPlan(64, 4)
	l := MinCrossLatency(ft, p, params)
	if l <= 0 {
		t.Fatalf("lookahead %v not positive", l)
	}
	// One wire hop + at least one switch traversal is the floor for any
	// cross-host route.
	if floor := params.WirePerHop; l < floor {
		t.Fatalf("lookahead %v below single-hop floor %v", l, floor)
	}
	if single := MinCrossLatency(ft, NewPlan(64, 1), params); single != 0 {
		t.Fatalf("single-partition lookahead %v, want 0", single)
	}
}

// TestRunnerDeterministicMerge runs a ping-pong of cross-shard
// messages whose handlers record delivery order, twice, and requires
// identical transcripts: the (From, At, Seq) merge must hide goroutine
// scheduling entirely.
func TestRunnerDeterministicMerge(t *testing.T) {
	transcript := func() [][]Msg {
		const parts = 4
		look := sim.Duration(50)
		engines := make([]*sim.Engine, parts)
		for i := range engines {
			engines[i] = sim.NewEngine()
		}
		// Per-shard logs: shards deliver concurrently, so only each
		// shard's own delivery order is a meaningful (and deterministic)
		// transcript.
		logs := make([][]Msg, parts)
		var r *Runner
		r = NewRunner(look, engines, func(s int, m Msg) {
			engines[s].Schedule(m.At, func() {
				logs[s] = append(logs[s], m)
				hop := m.Node
				if hop >= 40 { // bounded chain
					return
				}
				// Forward along a hop-dependent path so several chains
				// interleave on each shard's queue.
				d := (s + 1 + hop%(parts-1)) % parts
				if d == s {
					d = (d + 1) % parts
				}
				r.Send(s, d, engines[s].Now().Add(look), hop+1, nil)
			})
		})
		// Seed: every shard pings its neighbor.
		for s := 0; s < parts; s++ {
			s := s
			engines[s].Schedule(sim.Time(s), func() {
				r.Send(s, (s+1)%parts, engines[s].Now().Add(look), 0, nil)
			})
		}
		r.Run(nil)
		return logs
	}
	a, b := transcript(), transcript()
	total := 0
	for s := range a {
		if len(a[s]) != len(b[s]) {
			t.Fatalf("shard %d transcript lengths differ: %d vs %d", s, len(a[s]), len(b[s]))
		}
		total += len(a[s])
		for i := range a[s] {
			if a[s][i] != b[s][i] {
				t.Fatalf("shard %d diverges at %d: %+v vs %+v", s, i, a[s][i], b[s][i])
			}
		}
	}
	if total == 0 {
		t.Fatal("no messages delivered")
	}
}

func TestRunnerLookaheadViolationPanics(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := NewRunner(100, engines, func(int, Msg) {})
	engines[0].Schedule(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the window did not panic")
			}
			engines[0].Stop()
		}()
		// Window is [0, 100); arrival at 50 violates the invariant.
		r.Send(0, 1, 50, 0, nil)
	})
	r.Run(nil)
}

func TestRunnerWindowJumping(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	r := NewRunner(10, engines, func(int, Msg) {})
	// Two events a millisecond of virtual time apart: stepping 10 ns
	// windows through the gap would need ~100k windows; jumping needs 2.
	engines[0].Schedule(0, func() {})
	engines[1].Schedule(sim.Time(sim.Micros(1000)), func() {})
	r.Run(nil)
	if r.Windows() > 4 {
		t.Fatalf("executed %d windows, want the idle gap jumped (≤4)", r.Windows())
	}
}

func TestHierBarrierDeterministicAcrossRuns(t *testing.T) {
	spec := HierSpec{Nodes: 64, Parts: 4, Warmup: 1, Iters: 3, Prof: hwprofile.LANaiXPCluster()}
	a := MeasureHierBarrier(spec)
	b := MeasureHierBarrier(spec)
	if len(a.DoneAt) != len(b.DoneAt) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a.DoneAt), len(b.DoneAt))
	}
	for i := range a.DoneAt {
		if a.DoneAt[i] != b.DoneAt[i] {
			t.Fatalf("iteration %d completion differs: %v vs %v", i, a.DoneAt[i], b.DoneAt[i])
		}
	}
	if a.Windows != b.Windows || a.Tokens != b.Tokens {
		t.Fatalf("window/token counts differ: %d/%d vs %d/%d", a.Windows, a.Tokens, b.Windows, b.Tokens)
	}
	if a.MeanLatency <= 0 {
		t.Fatalf("mean latency %v not positive", a.MeanLatency)
	}
	wantTokens := uint64(spec.Parts * (spec.Warmup + spec.Iters) * 2) // log2(4) = 2 rounds
	if a.Tokens != wantTokens {
		t.Fatalf("exchanged %d tokens, want %d", a.Tokens, wantTokens)
	}
	// Pinned virtual-time figures: the shards' groups and the runner's
	// windows must not drift when the construction path changes.
	if want := sim.Duration(35342); a.MeanLatency != want {
		t.Errorf("mean latency %v, pinned %v", a.MeanLatency, want)
	}
	if a.Windows != 160 || a.Tokens != 32 {
		t.Errorf("windows/tokens %d/%d, pinned 160/32", a.Windows, a.Tokens)
	}
}

func TestHierBarrierPartsSweepCompletes(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 8} {
		spec := HierSpec{Nodes: 48, Parts: parts, Warmup: 1, Iters: 2, Prof: hwprofile.LANaiXPCluster()}
		res := MeasureHierBarrier(spec)
		if res.MeanLatency <= 0 {
			t.Fatalf("parts=%d: mean latency %v", parts, res.MeanLatency)
		}
		for i := 1; i < len(res.DoneAt); i++ {
			if res.DoneAt[i] <= res.DoneAt[i-1] {
				t.Fatalf("parts=%d: completions not increasing: %v", parts, res.DoneAt)
			}
		}
	}
}

func TestHierBarrierLookaheadFromProfile(t *testing.T) {
	spec := HierSpec{Nodes: 64, Parts: 4, Warmup: 0, Iters: 1, Prof: hwprofile.LANaiXPCluster()}
	res := MeasureHierBarrier(spec)
	net := spec.Prof.Net
	if res.Lookahead < net.WirePerHop {
		t.Fatalf("lookahead %v below a single wire hop %v", res.Lookahead, net.WirePerHop)
	}
	// The lookahead must never exceed any actual token flight time, or
	// Send would panic; completing at all proves it, but pin the bound
	// against the derivation too.
	p := NewPlan(spec.Nodes, spec.Parts)
	if probe := MinCrossLatency(topo.MinFatTree(8, spec.Nodes), p, net); res.Lookahead > probe {
		t.Fatalf("lookahead %v exceeds topology minimum %v", res.Lookahead, probe)
	}
}
