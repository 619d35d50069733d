package shard

import (
	"fmt"
	"runtime"
	"time"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// HierSpec configures a hierarchical cross-shard barrier run: Nodes
// endpoints split across Parts shards, executing Warmup+Iters
// consecutive global barriers under Prof's hardware costs.
type HierSpec struct {
	Nodes  int // total endpoints across all shards (≥ 2·Parts)
	Parts  int // shard count; 1 degenerates to a flat single-shard barrier
	Warmup int // iterations discarded before measuring
	Iters  int // measured iterations (≥ 1)
	Prof   hwprofile.MyrinetProfile
}

// HierResult reports one hierarchical barrier run. All virtual-time
// fields are deterministic per spec; WallTime is the host-side
// duration of the parallel simulation and varies run to run.
type HierResult struct {
	Nodes, Parts int
	Lookahead    sim.Duration // conservative window length used
	Windows      uint64       // lookahead windows executed
	Tokens       uint64       // cross-shard dissemination tokens exchanged
	DoneAt       []sim.Time   // global completion time per iteration
	MeanLatency  sim.Duration // mean per-iteration latency over the measured window
	WallTime     time.Duration
	// MemBytes is the live-heap growth across building and running the
	// whole simulation (topologies, sub-clusters, engines, runner),
	// measured by GC-settled HeapAlloc deltas. Divided by Nodes it is
	// the footprint-per-endpoint figure the shard-scale sweep gates;
	// like WallTime it is a host-side quantity, not virtual time.
	MemBytes uint64
}

// hierToken is the payload of one inter-shard dissemination message:
// "my shard has finished round `round` prerequisites of iteration
// `iter`".
type hierToken struct {
	iter, round int
}

// hierShard is one shard's slice of the hierarchical barrier: a
// full-fidelity Myrinet sub-cluster running a NIC-collective gather
// barrier and a NIC-based release broadcast, plus the dissemination
// state machine that stitches shards together through the Runner. The
// two groups are comm groups 1 (gather) and 2 (release), IDs assigned
// in creation order.
type hierShard struct {
	h      *hier
	id     int
	eng    *sim.Engine
	gather *comm.Group
	bcast  *comm.Group

	iter    int      // iteration currently executing (== len(doneAt) completed)
	state   int      // hierGathering | hierDissem | hierReleasing
	waiting int      // next dissemination round whose token we await
	got     [][]bool // got[iter][round]: token received (tokens may arrive early)
	doneAt  []sim.Time
}

const (
	hierGathering = iota
	hierDissem
	hierReleasing
)

type hier struct {
	spec   HierSpec
	plan   Plan
	runner *Runner
	shards []*hierShard
	rounds int              // ⌈log2 Parts⌉ dissemination rounds
	cross  [][]sim.Duration // cross[a][b]: token flight time shard a → b
	total  int              // Warmup + Iters
}

// MeasureHierBarrier simulates Warmup+Iters global barriers over
// spec.Nodes endpoints partitioned into spec.Parts shards, each shard
// a full-fidelity Myrinet sub-cluster on its own engine. One global
// barrier is three phases: an intra-shard NIC-collective dissemination
// barrier (the paper's protocol, unchanged), ⌈log2 Parts⌉ inter-shard
// dissemination rounds among shard representatives carried as
// cross-shard Runner messages, and an intra-shard NIC broadcast that
// releases the local ranks. Token flight times come from representative
// routes on the fat-tree topology a flat cluster of spec.Nodes would
// use, so the lookahead derivation (MinCrossLatency over the same
// topology) is anchored to the hardware profile rather than invented.
//
// Virtual-time results are deterministic per spec; the shards
// genuinely run in parallel, so WallTime reflects real speedup.
func MeasureHierBarrier(spec HierSpec) HierResult {
	if spec.Parts < 1 || spec.Nodes < 2*spec.Parts {
		panic(fmt.Sprintf("shard: hier barrier needs ≥2 nodes per shard, got %d nodes / %d parts",
			spec.Nodes, spec.Parts))
	}
	if spec.Iters < 1 || spec.Warmup < 0 {
		panic(fmt.Sprintf("shard: hier barrier warmup %d iters %d", spec.Warmup, spec.Iters))
	}
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	h := &hier{
		spec:   spec,
		plan:   NewPlan(spec.Nodes, spec.Parts),
		rounds: barrier.Log2Ceil(spec.Parts),
		total:  spec.Warmup + spec.Iters,
	}
	look := h.deriveLatencies()

	engines := make([]*sim.Engine, spec.Parts)
	for s := 0; s < spec.Parts; s++ {
		engines[s] = sim.NewEngine()
		h.shards = append(h.shards, h.newShard(s, engines[s]))
	}
	h.runner = NewRunner(look, engines, h.deliver)

	for _, sh := range h.shards {
		sh.gather.Launch(1)
	}
	start := time.Now()
	h.runner.Run(h.done)
	wall := time.Since(start)
	if !h.done() {
		panic(fmt.Sprintf("shard: hier barrier stalled (%d nodes, %d parts)", spec.Nodes, spec.Parts))
	}

	// Live-heap growth across construction + run. GC first so the delta
	// counts what this simulation keeps alive, not garbage from before
	// or during it. h must stay reachable across the GC for the
	// measurement to mean anything; it does — the result is read below.
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var memBytes uint64
	if m1.HeapAlloc > m0.HeapAlloc {
		memBytes = m1.HeapAlloc - m0.HeapAlloc
	}

	done := make([]sim.Time, h.total)
	for i := range done {
		for _, sh := range h.shards {
			if sh.doneAt[i] > done[i] {
				done[i] = sh.doneAt[i]
			}
		}
	}
	var from sim.Time
	if spec.Warmup > 0 {
		from = done[spec.Warmup-1]
	}
	return HierResult{
		Nodes:       spec.Nodes,
		Parts:       spec.Parts,
		Lookahead:   look,
		Windows:     h.runner.Windows(),
		Tokens:      h.runner.Delivered(),
		DoneAt:      done,
		MeanLatency: done[h.total-1].Sub(from) / sim.Duration(spec.Iters),
		WallTime:    wall,
		MemBytes:    memBytes,
	}
}

// deriveLatencies fills the cross-shard token flight matrix and
// returns the conservative lookahead: the smaller of the topology's
// minimum cross-partition head latency and the cheapest token flight,
// so every Send provably lands at or beyond its window's end.
func (h *hier) deriveLatencies() sim.Duration {
	var t topo.Topology
	if h.spec.Nodes <= 16 {
		t = topo.NewCrossbar(h.spec.Nodes)
	} else {
		t = topo.MinFatTree(8, h.spec.Nodes)
	}
	params := h.spec.Prof.Net
	tokenWire := sim.BytesAt(8, params.BandwidthMBps)

	h.cross = make([][]sim.Duration, h.plan.Parts())
	look := sim.Duration(0)
	if h.plan.Parts() > 1 {
		look = MinCrossLatency(t, h.plan, params)
	}
	for a := 0; a < h.plan.Parts(); a++ {
		h.cross[a] = make([]sim.Duration, h.plan.Parts())
		repA, _ := h.plan.Range(a)
		for b := 0; b < h.plan.Parts(); b++ {
			if a == b {
				continue
			}
			repB, _ := h.plan.Range(b)
			lat := headLatency(t, repA, repB, params) + tokenWire
			h.cross[a][b] = lat
			if lat < look {
				look = lat
			}
		}
	}
	if look <= 0 {
		// Single-partition runs exchange no tokens; any positive window
		// works, and a microsecond keeps the window count low.
		look = sim.Micros(1)
	}
	return look
}

func (h *hier) newShard(id int, eng *sim.Engine) *hierShard {
	size := h.plan.Size(id)
	c := comm.NewCluster(eng, h.spec.Prof, size, nil, nil)
	ids := make([]int, size)
	for i := range ids {
		ids[i] = i
	}
	sh := &hierShard{h: h, id: id, eng: eng}
	var err error
	sh.gather, err = c.NewGroup(comm.GroupConfig{Members: ids, Kind: comm.OpBarrier,
		Algorithm: barrier.Dissemination, MyrinetScheme: myrinet.SchemeCollective})
	if err != nil {
		panic(fmt.Sprintf("shard: gather group: %v", err))
	}
	sh.bcast, err = c.NewGroup(comm.GroupConfig{Members: ids, Kind: comm.OpBroadcast,
		Degree: barrier.DefaultTreeDegree})
	if err != nil {
		panic(fmt.Sprintf("shard: release group: %v", err))
	}
	sh.gather.SetOnIterDone(func(int, sim.Time) { sh.onGatherDone() })
	sh.bcast.SetOnIterDone(func(_ int, at sim.Time) { sh.onReleased(at) })
	sh.got = make([][]bool, h.total)
	for i := range sh.got {
		sh.got[i] = make([]bool, h.rounds)
	}
	sh.doneAt = make([]sim.Time, 0, h.total)
	return sh
}

// deliver is the Runner's per-message callback: schedule the token's
// processing on the destination shard's engine at its arrival time.
func (h *hier) deliver(shard int, m Msg) {
	sh := h.shards[shard]
	tok := m.Data.(hierToken)
	sh.eng.Schedule(m.At, func() { sh.onToken(tok) })
}

func (h *hier) done() bool {
	for _, sh := range h.shards {
		if sh.iter < h.total {
			return false
		}
	}
	return true
}

// onGatherDone fires when every local rank has entered the barrier
// (the intra-shard gather completed): start the inter-shard
// dissemination, or release immediately when there is nothing to
// disseminate (single shard).
func (sh *hierShard) onGatherDone() {
	sh.state = hierDissem
	sh.waiting = 0
	if sh.h.rounds == 0 {
		sh.release()
		return
	}
	sh.sendRound(0)
	sh.tryAdvance()
}

// sendRound emits this shard's round-r token to its dissemination
// partner (s + 2^r) mod P, arriving after the representative-route
// flight time — which is ≥ the runner's lookahead by construction.
func (sh *hierShard) sendRound(r int) {
	dst := (sh.id + 1<<uint(r)) % sh.h.plan.Parts()
	repDst, _ := sh.h.plan.Range(dst)
	at := sh.eng.Now().Add(sh.h.cross[sh.id][dst])
	sh.h.runner.Send(sh.id, dst, at, repDst, hierToken{iter: sh.iter, round: r})
}

// onToken buffers an inbound dissemination token. Tokens can run ahead
// of this shard — a faster peer may finish a later round, or even its
// next iteration's gather, before we finish the current round — so
// receipt is recorded per (iteration, round) and consumed when the
// state machine catches up.
func (sh *hierShard) onToken(t hierToken) {
	sh.got[t.iter][t.round] = true
	if sh.state == hierDissem && t.iter == sh.iter {
		sh.tryAdvance()
	}
}

// tryAdvance walks the dissemination rounds: each satisfied round
// unlocks sending the next one (rounds 0..r-1 must be heard before
// round r is sent, the dissemination invariant); hearing the final
// round releases the shard.
func (sh *hierShard) tryAdvance() {
	for sh.waiting < sh.h.rounds && sh.got[sh.iter][sh.waiting] {
		sh.waiting++
		if sh.waiting < sh.h.rounds {
			sh.sendRound(sh.waiting)
		}
	}
	if sh.waiting == sh.h.rounds {
		sh.release()
	}
}

// release broadcasts the global completion to the shard's local ranks
// over the NIC broadcast tree.
func (sh *hierShard) release() {
	sh.state = hierReleasing
	sh.bcast.Reset()
	sh.bcast.Launch(1)
}

// onReleased fires when the release broadcast has reached every local
// rank: the global barrier iteration is complete on this shard. Start
// the next iteration's gather, with all ranks re-entering at the
// release completion instant.
func (sh *hierShard) onReleased(at sim.Time) {
	sh.doneAt = append(sh.doneAt, at)
	sh.iter++
	if sh.iter < sh.h.total {
		sh.state = hierGathering
		sh.gather.Reset()
		sh.gather.Launch(1)
	}
}
