package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/shard"
	"nicbarrier/internal/sim"
)

// env is what one workload instance runs with.
type env struct {
	seed   uint64
	traced bool // attach event observers and skip the live-heap GC
	oracle *oracle
}

type workload struct {
	name string
	// shape names the workload's size parameters; pins.json is keyed by
	// it, and by seed when seeded is set.
	shape    string
	seeded   bool
	instance func(env) instance
}

// registry builds the full-size workloads by name, lazily: each one
// precomputes schedule sizes, which is not free at 16k endpoints.
var registry = map[string]func() workload{
	"paper-8node":        func() workload { return paper8(100, 1000) },
	"tenants-2048-lossy": func() workload { return tenants("tenants-2048-lossy", 2048, 128, 40) },
	"hier-16k":           func() workload { return hier("hier-16k", 16384, 0, 1) },
}

func lookup(name string) (workload, bool) {
	mk, ok := registry[name]
	if !ok {
		return workload{}, false
	}
	return mk(), true
}

func names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// counts are one instance's per-layer work counters. For a given seed
// and workload shape they repeat exactly.
type counts struct {
	events, cancelled uint64 // sim: events fired and cancelled
	pendingMax        int    // sim: deepest event queue after a pop
	probed            bool   // cancelled and pendingMax were observed

	sent, delivered, dropped, bytes uint64 // netsim

	collSent, collRecvd, collResent, nacksSent, staleColl uint64 // myrinet collective protocol
	dataSent, retransmits                                 uint64 // myrinet point-to-point protocol

	rdmasSent, chainsRun uint64 // elan

	arrivals int64 // core: notifications the completed collectives' schedules deliver

	installs, queued, slotHighWater int // comm admission
	failedTenants, evictions        int // comm workload

	windows, tokens uint64        // shard runner
	parts           int           // shard count (0: unsharded)
	cpu, wall       time.Duration // process CPU and host wall time of a sharded run
}

func (c *counts) addNet(n netsim.Counters) {
	c.sent += n.Sent
	c.delivered += n.Delivered
	c.dropped += n.Dropped
	c.bytes += n.Bytes
}

func (c *counts) addMyrinet(s myrinet.NICStats) {
	c.collSent += s.CollSent
	c.collRecvd += s.CollRecvd
	c.collResent += s.CollResent
	c.nacksSent += s.NacksSent
	c.staleColl += s.StaleColl
	c.dataSent += s.DataSent
	c.retransmits += s.Retransmits
}

func (c *counts) addElan(s elan.Stats) {
	c.rdmasSent += s.RDMAsSent
	c.chainsRun += s.ChainsRun
}

func (c *counts) addAdmission(s comm.AdmissionStats) {
	c.installs += s.Installs
	c.queued += s.Queued
	c.slotHighWater = max(c.slotHighWater, s.SlotHighWater)
}

// probe is the benchmark's sim.EventObserver: it counts fired and
// cancelled events and tracks the queue depth of one engine.
type probe struct {
	eng              *sim.Engine
	fired, cancelled uint64
	pendingMax       int
}

func (p *probe) EventFired(sim.Time) {
	p.fired++
	p.pendingMax = max(p.pendingMax, p.eng.Pending())
}

func (p *probe) EventCancelled(sim.Time) { p.cancelled++ }

func (c *counts) addProbe(p *probe) {
	c.probed = true
	c.events += p.fired
	c.cancelled += p.cancelled
	c.pendingMax = max(c.pendingMax, p.pendingMax)
}

// attach installs a probe on eng when the instance is traced.
func (e env) attach(eng *sim.Engine) *probe {
	if !e.traced {
		return nil
	}
	p := &probe{eng: eng}
	eng.SetObserver(p)
	return p
}

// mark snapshots wall time, CPU time (the process's and the calling
// thread's) and the allocator's counters. markStart reads the clocks
// after ReadMemStats and markEnd before it, so the measured span never
// includes that stop-the-world call.
type mark struct {
	at            time.Time
	cpu, thread   time.Duration
	allocs, bytes uint64
	heap          uint64
}

func markStart() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: time.Now(), cpu: cpuTime(processCPU), thread: cpuTime(threadCPU),
		allocs: ms.Mallocs, bytes: ms.TotalAlloc, heap: ms.HeapAlloc}
}

func markEnd() mark {
	at, cpu, thread := time.Now(), cpuTime(processCPU), cpuTime(threadCPU)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: at, cpu: cpu, thread: thread, allocs: ms.Mallocs, bytes: ms.TotalAlloc, heap: ms.HeapAlloc}
}

// runPhase records the CPU time and allocations between two marks.
func (in *instance) runPhase(from, to mark) {
	in.run = to.cpu - from.cpu
	in.allocs = to.allocs - from.allocs
	in.bytes = to.bytes - from.bytes
}

// liveHeap returns the GC-settled heap growth since base. The caller
// keeps the simulation reachable across the call.
func liveHeap(base mark) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc < base.heap {
		return 0
	}
	return ms.HeapAlloc - base.heap
}

// sends counts the notifications one collective delivers: the sum of
// every rank's schedule sends. Each is one arrival at a core.OpState
// when nothing is lost.
func sends(scheds []barrier.Schedule) int64 {
	var n int64
	for _, s := range scheds {
		n += int64(s.TotalSends())
	}
	return n
}

// --- paper-8node ---

// loop is one of the paper's 8-node closed measurement loops: one comm
// group on its own cluster, running back-to-back barriers.
type loop struct {
	name  string
	build func(*sim.Engine) *comm.Cluster
	cfg   comm.GroupConfig
	place func(*sim.RNG) []int
	want  func(*oracle) (float64, error) // simulated mean latency, µs
}

// elanBase holds the rank placements the committed baseline measured on
// the Elan3 testbed (chained RDMA, elan_gsync); on its fat tree the
// latency depends on placement.
var (
	elanChainedBase = []int{4, 3, 1, 7, 6, 5, 2, 0}
	elanGsyncBase   = []int{0, 7, 4, 5, 2, 6, 1, 3}
)

// elanPlace maps a baseline placement through a seeded symmetry of the
// 8-node Elite fat tree: nodes permute within each 4-port leaf switch
// and the two leaves may swap. A symmetry of the topology must not move
// the simulated latency, so the oracle holds for every seed.
func elanPlace(base []int) func(*sim.RNG) []int {
	return func(rng *sim.RNG) []int {
		within := [2][]int{rng.Perm(4), rng.Perm(4)}
		swap := rng.Intn(2)
		out := make([]int, len(base))
		for r, node := range base {
			leaf := node / 4
			out[r] = (leaf^swap)*4 + within[leaf][node%4]
		}
		return out
	}
}

// myrinetPlace permutes ranks freely: the LANai-XP testbed is one
// crossbar, on which every placement is a symmetry.
func myrinetPlace(rng *sim.RNG) []int { return rng.Perm(8) }

func paperLoops() []loop {
	const (
		xpNIC   = "summary/Myrinet_LANai-XP_NIC-based_barrier,_8_nodes"
		xpHost  = "fig6/Host-DS/n8"
		elanNIC = "summary/Quadrics_NIC-based_barrier,_8_nodes"
		gsyncX  = "summary/Quadrics_NIC-based_barrier,_8_nodes/improvement_over_elan_gsync_tree_barrier"
	)
	overXP := func(eng *sim.Engine) *comm.Cluster {
		return comm.OverMyrinet(myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil))
	}
	overElan := func(eng *sim.Engine) *comm.Cluster {
		return comm.OverElan(elan.NewCluster(eng, hwprofile.Elan3Cluster(), 8))
	}
	baseline := func(name string) func(*oracle) (float64, error) {
		return func(or *oracle) (float64, error) { return or.value(name) }
	}
	return []loop{
		{name: "myrinet-xp-nic-collective", build: overXP, place: myrinetPlace, want: baseline(xpNIC),
			cfg: comm.GroupConfig{Kind: comm.OpBarrier, Algorithm: barrier.Dissemination, MyrinetScheme: myrinet.SchemeCollective}},
		{name: "myrinet-xp-host-dissemination", build: overXP, place: myrinetPlace, want: baseline(xpHost),
			cfg: comm.GroupConfig{Kind: comm.OpBarrier, Algorithm: barrier.Dissemination, MyrinetScheme: myrinet.SchemeHost}},
		{name: "elan3-chained-rdma", build: overElan, place: elanPlace(elanChainedBase), want: baseline(elanNIC),
			cfg: comm.GroupConfig{Kind: comm.OpBarrier, Algorithm: barrier.Dissemination, ElanScheme: elan.SchemeChained}},
		{name: "elan3-gsync", build: overElan, place: elanPlace(elanGsyncBase),
			cfg: comm.GroupConfig{Kind: comm.OpBarrier, Algorithm: barrier.GatherBroadcast, ElanScheme: elan.SchemeGsync},
			// The baseline pins elan_gsync as its ratio to the chained barrier.
			want: func(or *oracle) (float64, error) {
				nic, err := or.value(elanNIC)
				if err != nil {
					return 0, err
				}
				x, err := or.value(gsyncX)
				return nic * x, err
			}},
	}
}

// paper8 runs the four loops, each warmup+iters barriers, and checks
// every loop's mean latency over the measured iterations against the
// baseline.
func paper8(warmup, iters int) workload {
	loops := paperLoops()
	perBarrier := make([]int64, len(loops))
	for i, l := range loops {
		perBarrier[i] = sends(barrier.All(l.cfg.Algorithm, 8, l.cfg.Options))
	}
	total := warmup + iters
	return workload{name: "paper-8node", seeded: true, instance: func(e env) instance {
		in := instance{attempted: int64(len(loops) * total * 8)}
		rng := sim.NewRNG(e.seed)
		base := markStart()

		t0 := cpuTime(threadCPU)
		engines := make([]*sim.Engine, len(loops))
		clusters := make([]*comm.Cluster, len(loops))
		for i, l := range loops {
			engines[i] = sim.NewEngine()
			clusters[i] = l.build(engines[i])
		}
		t1 := cpuTime(threadCPU)
		groups := make([]*comm.Group, len(loops))
		for i, l := range loops {
			cfg := l.cfg
			cfg.Members = l.place(rng)
			g, err := clusters[i].NewGroup(cfg)
			if err != nil {
				in.err = fmt.Errorf("%s: %w", l.name, err)
				return in
			}
			groups[i] = g
		}
		in.cluster, in.install = t1-t0, cpuTime(threadCPU)-t1
		probes := make([]*probe, len(loops))
		for i := range engines {
			probes[i] = e.attach(engines[i])
		}

		done := make([][]sim.Time, len(loops))
		from := markStart()
		for i, g := range groups {
			done[i] = g.Run(total)
		}
		in.runPhase(from, markEnd())

		for i, l := range loops {
			want, err := l.want(e.oracle)
			if err == nil {
				if got := meanLatencyUS(done[i], warmup); !sameUS(got, want) {
					err = fmt.Errorf("%s: mean latency %.6f us, oracle %.6f us", l.name, got, want)
				}
			}
			if err != nil && in.err == nil {
				in.err = err
			}
			in.completed += int64(len(done[i]) * 8)
			in.counts.arrivals += int64(len(done[i])) * perBarrier[i]
			c := clusters[i]
			in.counts.addAdmission(c.AdmissionStats())
			if c.My != nil {
				in.counts.addNet(c.My.Net.Counters())
				in.counts.addMyrinet(c.My.Stats())
			} else {
				in.counts.addNet(c.El.Net.Counters())
				in.counts.addElan(c.El.Stats())
			}
			if probes[i] != nil {
				in.counts.addProbe(probes[i])
			}
		}
		if !e.traced {
			in.heap = liveHeap(base)
		}
		runtime.KeepAlive(clusters)
		return in
	}}
}

// meanLatencyUS is the mean per-barrier latency over the iterations
// after warmup, as the paper's loop measures it.
func meanLatencyUS(done []sim.Time, warmup int) float64 {
	var from sim.Time
	if warmup > 0 {
		from = done[warmup-1]
	}
	return done[len(done)-1].Sub(from).Micros() / float64(len(done)-warmup)
}

// --- tenants-2048-lossy ---

// tenants runs comm.RunWorkload: open-loop Poisson tenants with a 2:1:1
// barrier/broadcast/allreduce mix on overlapping nodes of a LANai-XP
// cluster with 1% seeded random loss. Installs that would overfill a
// NIC's group slots are re-placed (AdmitSpread), so no seed's plan
// fails admission.
func tenants(name string, nodes, tenantCount, ops int) workload {
	shape := fmt.Sprintf("%dn-%dt-%dops", nodes, tenantCount, ops)
	return workload{name: name, shape: shape, seeded: true, instance: func(e env) instance {
		var in instance
		spec := comm.WorkloadSpec{
			Tenants:      tenantCount,
			OpsPerTenant: ops,
			GroupSizeMin: 2,
			GroupSizeMax: min(32, nodes),
			Overlap:      true,
			Mix:          comm.OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
			Arrival:      comm.ArrivalSpec{Kind: comm.OpenLoop, MeanGapUS: 20},
			Seed:         e.seed,
		}
		base := markStart()

		t0 := cpuTime(threadCPU)
		eng := sim.NewEngine()
		cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), nodes,
			&netsim.RandomLoss{Rate: 0.01, RNG: sim.NewRNG(e.seed + 1)})
		c := comm.OverMyrinet(cl)
		c.SetAdmission(comm.AdmissionConfig{Policy: comm.AdmitSpread})
		t1 := cpuTime(threadCPU)
		// RunWorkload plans and installs every tenant, then drives the
		// engine; this marker is the first event to fire, so it ends
		// set-up and starts the run phase.
		var from mark
		started := false
		eng.Schedule(0, func() { from, started = markStart(), true })
		p := e.attach(eng)
		res, err := comm.RunWorkload(c, spec)
		to := markEnd()
		if !started { // failed before the first event
			from = to
		}
		in.cluster, in.install = t1-t0, from.thread-t1
		in.runPhase(from, to)
		if err != nil {
			// The plan's group sizes are unknown: count each planned
			// collective once.
			in.attempted = int64(tenantCount * ops)
			in.err = err
			return in
		}

		for _, t := range res.Tenants {
			in.attempted += int64(t.Size * ops)
			in.completed += int64(t.Size * t.Ops)
			in.counts.arrivals += int64(t.Ops) * opSends(t.Kind, t.Size)
		}
		net := cl.Net.Counters()
		in.pin = tenantPin{MakespanUS: res.MakespanUS, Sent: net.Sent, Dropped: net.Dropped}
		in.err = checkTenants(e, shape, spec, res, in.pin.(tenantPin))
		in.counts.addNet(net)
		in.counts.addMyrinet(cl.Stats())
		in.counts.addAdmission(c.AdmissionStats())
		in.counts.failedTenants, in.counts.evictions = res.FailedTenants, res.Evictions
		if p != nil {
			in.counts.addProbe(p)
			in.counts.events-- // the set-up marker
		}
		if !e.traced {
			in.heap = liveHeap(base)
		}
		runtime.KeepAlive(c)
		return in
	}}
}

// opSends is the notification count of one tenant collective, as
// comm installs it: dissemination for barriers and allreduces, a
// degree-4 tree rooted at rank 0 for broadcasts.
func opSends(kind comm.OpKind, size int) int64 {
	if kind == comm.OpBroadcast {
		return sends(barrier.AllBroadcast(size, 0, barrier.DefaultTreeDegree))
	}
	return sends(barrier.All(barrier.Dissemination, size, barrier.Options{}))
}

// checkTenants applies the tenant workload's oracle: every planned
// operation completed (RunWorkload has already verified each allreduce
// result), and the makespan and packet counts match the pins for this
// seed when there are any.
func checkTenants(e env, shape string, spec comm.WorkloadSpec, res comm.WorkloadResult, got tenantPin) error {
	if want := spec.Tenants * spec.OpsPerTenant; res.TotalOps != want || res.FailedTenants != 0 {
		return fmt.Errorf("tenants: %d of %d ops completed, %d tenants failed", res.TotalOps, want, res.FailedTenants)
	}
	pin, ok := e.oracle.tenantPin(shape, e.seed)
	if !ok {
		return nil
	}
	if !sameUS(got.MakespanUS, pin.MakespanUS) || got.Sent != pin.Sent || got.Dropped != pin.Dropped {
		return fmt.Errorf("tenants: makespan %.3f us, %d sent, %d dropped; pinned %.3f us, %d sent, %d dropped",
			got.MakespanUS, got.Sent, got.Dropped, pin.MakespanUS, pin.Sent, pin.Dropped)
	}
	return nil
}

// --- hier-16k ---

// hierParts is the shard count: one shard per host core of the
// reference machine.
const hierParts = 2

// hier runs shard.MeasureHierBarrier, whose API does not separate its
// set-up from its run. The calling thread builds the shards and then
// only coordinates the runner's windows while the shard workers
// simulate, so set-up is that thread's CPU time over the call (it did
// not grow measurably from 136 windows to 676), and the run phase is
// the rest of the process's CPU time over the call. Allocations and the
// live heap cover the whole call.
func hier(name string, nodes, warmup, iters int) workload {
	spec := shard.HierSpec{Nodes: nodes, Parts: hierParts, Warmup: warmup, Iters: iters,
		Prof: hwprofile.LANaiXPCluster()}
	shape := fmt.Sprintf("%dn-%dp-%dw-%di", nodes, hierParts, warmup, iters)
	// Per global barrier, each shard runs a dissemination gather and a
	// degree-4 release broadcast over its local ranks.
	plan := shard.NewPlan(nodes, hierParts)
	var perIter int64
	for s := 0; s < hierParts; s++ {
		n := plan.Size(s)
		perIter += sends(barrier.All(barrier.Dissemination, n, barrier.Options{})) +
			sends(barrier.AllBroadcast(n, 0, barrier.DefaultTreeDegree))
	}
	return workload{name: name, shape: shape, instance: func(e env) instance {
		var in instance
		total := warmup + iters
		in.attempted = int64(nodes * total)

		from, ev0 := markStart(), sim.TotalExecuted()
		res := shard.MeasureHierBarrier(spec)
		to := markEnd()
		in.runPhase(from, to)
		in.cluster = to.thread - from.thread
		in.run -= in.cluster
		in.heap = res.MemBytes

		in.counts.events = sim.TotalExecuted() - ev0
		in.counts.windows, in.counts.tokens = res.Windows, res.Tokens
		in.counts.arrivals = int64(total) * perIter
		in.counts.parts, in.counts.cpu, in.counts.wall = hierParts, in.run, res.WallTime

		got := hierPin{LatencyUS: res.MeanLatency.Micros(), Windows: res.Windows, Tokens: res.Tokens}
		in.pin = got
		pin, ok := e.oracle.pins.Hier[shape]
		switch {
		case !ok:
			in.err = fmt.Errorf("hier: shape %s: %w", shape, errNoPin)
		case !sameUS(got.LatencyUS, pin.LatencyUS) || got.Windows != pin.Windows || got.Tokens != pin.Tokens:
			in.err = fmt.Errorf("hier: latency %.3f us, %d windows, %d tokens; pinned %.3f us, %d windows, %d tokens",
				got.LatencyUS, got.Windows, got.Tokens, pin.LatencyUS, pin.Windows, pin.Tokens)
		default:
			in.completed = in.attempted
		}
		return in
	}}
}

// CPU clocks (Linux clock IDs): the whole process's, or the calling
// thread's; measure locks the instance goroutine to its thread.
const (
	processCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads a CPU clock. CPU time, unlike wall time, does not grow
// while the hypervisor runs other guests on this machine's cores.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno))
	}
	return time.Duration(ts.Nano())
}
