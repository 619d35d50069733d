package nicbarrier

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/harness"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// Cluster is a persistent simulated cluster that many process groups
// share — the multi-tenant face of the library. Where the one-shot
// Measure* functions build a cluster, run one group, and throw both
// away, a Cluster lives across operations: create groups over arbitrary
// node subsets with NewGroup, run their collectives (concurrently, via
// MeasureWorkload/RunWorkload, or back to back via the Group methods),
// and let them contend for the NIC group-queue slots, firmware
// processors and links the way the paper's per-group protocol intends.
//
//	c, _ := nicbarrier.NewCluster(nicbarrier.Config{
//		Interconnect: nicbarrier.MyrinetLANaiXP,
//		Nodes:        16,
//		Scheme:       nicbarrier.NICCollective,
//	})
//	g1, _ := c.NewGroup([]int{0, 1, 2, 3})
//	g2, _ := c.NewGroup([]int{4, 5, 6, 7})
//	res, _ := g1.Barrier(10, 1000) // g2 may run its own ops on the same wire
type Cluster struct {
	cfg Config
	c   *comm.Cluster
	// replicas are the extra workload shards under Config.Partitions > 1
	// (shard 0 is c itself). Single-group measurements never touch them;
	// RunWorkload/RunChurn deal tenants across [c, replicas...].
	replicas []*comm.Cluster
}

// AdmissionPolicy decides what a group install does when a member NIC's
// group slots are exhausted.
type AdmissionPolicy int

// Admission policies.
const (
	// AdmitError fails the install cleanly (the default and the
	// historical behavior).
	AdmitError AdmissionPolicy = iota
	// AdmitQueue defers the install until a Group.Close frees the slots
	// it needs; deferred installs are served strictly FIFO.
	AdmitQueue
	// AdmitSpread re-places the group on the member NICs with the most
	// free slots.
	AdmitSpread
	// AdmitPack re-places the group on the fullest NICs that still have
	// a free slot.
	AdmitPack
)

// String implements fmt.Stringer.
func (p AdmissionPolicy) String() string { return comm.AdmitPolicy(p).String() }

// AdmissionConfig configures a Cluster's admission controller.
type AdmissionConfig struct {
	Policy AdmissionPolicy
	// ChargeInstallCosts charges the hardware profile's GroupInstallCost
	// on member NICs' simulated timelines at install. Teardown cost is
	// always charged by Close — teardown is inherently a live-cluster
	// operation; only the install side has a free setup phase.
	ChargeInstallCosts bool
}

func (a AdmissionConfig) internal() comm.AdmissionConfig {
	return comm.AdmissionConfig{
		Policy:           comm.AdmitPolicy(a.Policy),
		ChargeSetupCosts: a.ChargeInstallCosts,
	}
}

// NewCluster builds a simulated cluster from cfg (Nodes, Interconnect,
// LossRate, Faults, Admission, Seed). The Scheme and Algorithm fields
// set the default for groups created on it. Under cfg.Partitions > 1
// it also builds the replica shards that partitioned workloads run on.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cc, err := newCommCluster(cfg, 0)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, c: cc}
	for s := 1; s < cfg.Partitions; s++ {
		rc, err := newCommCluster(cfg, s)
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, rc)
	}
	return c, nil
}

// newCommCluster builds one simulated cluster backend — engine, NIC
// backend, comm layer, admission controller and trace scope — from cfg.
// shard is the replica index under partitioned workload execution;
// shard 0 is the primary and keeps the historical trace-scope name, so
// single-partition traces are unchanged.
func newCommCluster(cfg Config, shard int) (*comm.Cluster, error) {
	prof, err := profileOf(cfg.Interconnect)
	if err != nil {
		return nil, err
	}
	var loss netsim.LossModel
	if cfg.LossRate > 0 {
		loss = &netsim.RandomLoss{Rate: cfg.LossRate, RNG: sim.NewRNG(cfg.Seed + 1)}
	}
	faults := compileFaults(cfg.Faults, cfg.Seed, prof.Wire().BandwidthMBps)
	cc := comm.NewCluster(sim.NewEngine(), prof, cfg.Nodes, loss, faults)
	cc.SetAdmission(cfg.Admission.internal())
	if cfg.Trace != nil {
		name := fmt.Sprintf("%v %dn %v", cfg.Interconnect, cfg.Nodes, cfg.Scheme)
		if shard > 0 {
			name = fmt.Sprintf("%s/shard%d", name, shard)
		}
		sc := cfg.Trace.newScope(name)
		cc.Eng.SetObserver(sc)
		cc.SetTracer(sc)
	}
	return cc, nil
}

// workloadClusters is the shard list partitioned workloads run over:
// the primary plus the Partitions-1 replicas.
func (c *Cluster) workloadClusters() []*comm.Cluster {
	if len(c.replicas) == 0 {
		return []*comm.Cluster{c.c}
	}
	return append([]*comm.Cluster{c.c}, c.replicas...)
}

// Group is one communicator on a shared Cluster: a node subset with its
// own NIC group-queue slot, bit-vector records and sequence space per
// collective shape it runs. The first Barrier/Broadcast/Allreduce call
// claims the slot; repeated calls reuse it (the operation sequence
// continues, as the protocol's long-lived group queues do).
type Group struct {
	c       *Cluster
	members []int
	closed  bool

	barrierG *comm.Group
	bcastG   map[[2]int]*comm.Group
	reduceG  map[ReduceOperator]*comm.Group
}

// NewGroup declares a communicator over the given node IDs (rank
// order). NIC resources are claimed lazily by the first collective run
// on it, so declaring a group is free; running one fails cleanly when a
// member NIC's group-queue slots are exhausted.
func (c *Cluster) NewGroup(members []int) (*Group, error) {
	if len(members) < 1 {
		return nil, fmt.Errorf("nicbarrier: empty group")
	}
	seen := make(map[int]bool, len(members))
	for _, id := range members {
		if id < 0 || id >= c.cfg.Nodes {
			return nil, fmt.Errorf("nicbarrier: member node %d outside cluster of %d", id, c.cfg.Nodes)
		}
		if seen[id] {
			return nil, fmt.Errorf("nicbarrier: member node %d repeated", id)
		}
		seen[id] = true
	}
	return &Group{c: c, members: append([]int(nil), members...)}, nil
}

// Size reports the number of ranks in the group.
func (g *Group) Size() int { return len(g.members) }

// Close tears the group down, releasing every NIC group-queue slot its
// collective shapes claimed (one per distinct barrier, broadcast tree
// and allreduce operator it ran) back to the cluster — the teardown
// cost charged on the member NICs. Runs in flight drain first; under
// the queueing admission policy the freed slots immediately serve
// deferred installs. Closing an unused or already-closed group is a
// no-op. The group cannot run collectives afterwards.
func (g *Group) Close() error {
	if g.barrierG != nil {
		if err := g.barrierG.Close(); err != nil {
			return err
		}
		g.barrierG = nil
	}
	for key, cg := range g.bcastG {
		if err := cg.Close(); err != nil {
			return err
		}
		delete(g.bcastG, key)
	}
	for op, cg := range g.reduceG {
		if err := cg.Close(); err != nil {
			return err
		}
		delete(g.reduceG, op)
	}
	g.closed = true
	return nil
}

// schemes maps the public scheme to the backend selector.
func (c *Cluster) commSchemes() (myrinet.Scheme, elan.Scheme, error) {
	quadrics := c.cfg.Interconnect == QuadricsElan3
	switch c.cfg.Scheme {
	case HostBased:
		return myrinet.SchemeHost, elan.SchemeGsync, nil
	case NICDirect:
		return myrinet.SchemeDirect, 0, nil
	case NICCollective:
		return myrinet.SchemeCollective, elan.SchemeChained, nil
	case HardwareBroadcast:
		if quadrics {
			return 0, elan.SchemeHW, nil
		}
	}
	return 0, 0, fmt.Errorf("nicbarrier: scheme %v unsupported on %v", c.cfg.Scheme, c.cfg.Interconnect)
}

// Barrier runs warmup+iters consecutive barriers on this group, using
// the cluster Config's Scheme and Algorithm, and returns latency
// statistics over the measured iterations. Other groups on the cluster
// are untouched and may run their own operations concurrently via
// MeasureWorkload-style driving.
func (g *Group) Barrier(warmup, iters int) (Result, error) {
	if g.closed {
		return Result{}, fmt.Errorf("nicbarrier: group is closed")
	}
	if err := checkLoop(warmup, iters); err != nil {
		return Result{}, err
	}
	if g.barrierG == nil {
		ms, es, err := g.c.commSchemes()
		if err != nil {
			return Result{}, err
		}
		alg := g.c.cfg.Algorithm.internal()
		if g.c.cfg.Interconnect == QuadricsElan3 && g.c.cfg.Scheme == HostBased {
			alg = barrier.GatherBroadcast
		}
		cg, err := g.c.c.NewGroup(comm.GroupConfig{
			Members:       g.members,
			Kind:          comm.OpBarrier,
			Algorithm:     alg,
			Options:       barrier.Options{TreeDegree: g.c.cfg.TreeDegree},
			MyrinetScheme: ms,
			ElanScheme:    es,
		})
		if err != nil {
			return Result{}, err
		}
		g.barrierG = cg
	}
	if err := runnable(g.barrierG); err != nil {
		return Result{}, err
	}
	return g.c.measure(g.barrierG, warmup, iters), nil
}

// Broadcast runs warmup+iters NIC-based broadcasts from root down a
// degree-ary tree (Myrinet clusters only).
func (g *Group) Broadcast(root, degree, warmup, iters int) (Result, error) {
	if g.closed {
		return Result{}, fmt.Errorf("nicbarrier: group is closed")
	}
	if err := checkLoop(warmup, iters); err != nil {
		return Result{}, err
	}
	if g.c.cfg.Interconnect == QuadricsElan3 {
		return Result{}, fmt.Errorf("nicbarrier: NIC-based broadcast is implemented on Myrinet")
	}
	if root < 0 || root >= len(g.members) {
		return Result{}, fmt.Errorf("nicbarrier: root %d outside group of %d", root, len(g.members))
	}
	if degree == 0 {
		degree = 4
	}
	key := [2]int{root, degree}
	if g.bcastG == nil {
		g.bcastG = make(map[[2]int]*comm.Group)
	}
	cg := g.bcastG[key]
	if cg == nil {
		var err error
		cg, err = g.c.c.NewGroup(comm.GroupConfig{
			Members: g.members,
			Kind:    comm.OpBroadcast,
			Root:    root,
			Degree:  degree,
		})
		if err != nil {
			return Result{}, err
		}
		g.bcastG[key] = cg
	}
	if err := runnable(cg); err != nil {
		return Result{}, err
	}
	return g.c.measure(cg, warmup, iters), nil
}

// allreduceContrib is the deterministic contribution the library's
// allreduce measurements feed in (and self-check against).
func allreduceContrib(rank, iter int) int64 { return int64(rank*131 + iter*17 - 64) }

// Allreduce runs warmup+iters NIC-based single-word allreduces with the
// given operator (Myrinet clusters only), self-checking every
// iteration's result on every rank against the reference reduction.
func (g *Group) Allreduce(op ReduceOperator, warmup, iters int) (Result, error) {
	if g.closed {
		return Result{}, fmt.Errorf("nicbarrier: group is closed")
	}
	if err := checkLoop(warmup, iters); err != nil {
		return Result{}, err
	}
	if g.c.cfg.Interconnect == QuadricsElan3 {
		return Result{}, fmt.Errorf("nicbarrier: NIC-based allreduce is implemented on Myrinet")
	}
	if g.reduceG == nil {
		g.reduceG = make(map[ReduceOperator]*comm.Group)
	}
	cg := g.reduceG[op]
	if cg == nil {
		var err error
		cg, err = g.c.c.NewGroup(comm.GroupConfig{
			Members:   g.members,
			Kind:      comm.OpAllreduce,
			Algorithm: g.c.cfg.Algorithm.internal(),
			Options:   barrier.Options{TreeDegree: g.c.cfg.TreeDegree},
			Reduce:    op.internal(),
			Contrib:   allreduceContrib,
		})
		if err != nil {
			return Result{}, err
		}
		g.reduceG[op] = cg
	}
	if err := runnable(cg); err != nil {
		return Result{}, err
	}
	res := g.c.measure(cg, warmup, iters)
	for iter, row := range cg.Results() {
		want := allreduceContrib(0, iter)
		for r := 1; r < len(g.members); r++ {
			want = op.internal().Combine(want, allreduceContrib(r, iter))
		}
		for rank, got := range row {
			if got != want {
				return Result{}, fmt.Errorf(
					"nicbarrier: allreduce iteration %d rank %d: got %d, want %d", iter, rank, got, want)
			}
		}
	}
	return res, nil
}

func checkLoop(warmup, iters int) error {
	if warmup < 0 || iters < 1 {
		return fmt.Errorf("nicbarrier: warmup %d / iters %d", warmup, iters)
	}
	return nil
}

// runnable rejects exclusive runs on a group whose install is still
// queued behind full NICs: an exclusive measurement loop never closes
// other groups, so the install would wait forever.
func runnable(cg *comm.Group) error {
	if !cg.Installed() {
		return fmt.Errorf("nicbarrier: group install is queued awaiting free NIC slots; close another group first")
	}
	return nil
}

// measure drives one comm group exclusively for warmup+iters operations
// and assembles a Result from counter deltas, so repeated measurements
// on a shared cluster stay independent. On a fresh cluster the deltas
// equal the absolutes, which keeps the one-shot Measure* wrappers
// bit-identical to their historical behavior.
//
// A group whose install is still queued (AdmitQueue on a full NIC)
// cannot be driven exclusively — nothing in an exclusive run will free
// the slots it waits for — so callers error out before reaching here
// (see runnable).
func (c *Cluster) measure(cg *comm.Group, warmup, iters int) Result {
	c0 := c.c.WireStats()
	t0 := c.c.Eng.Now()
	cg.Reset()
	doneAt := cg.Run(warmup + iters)
	c.c.Eng.Run() // drain trailing ACKs and events for accurate counters
	if t0 != 0 {
		shifted := make([]sim.Time, len(doneAt))
		for i, at := range doneAt {
			shifted[i] = sim.Time(0).Add(at.Sub(t0))
		}
		doneAt = shifted
	}
	st := harness.LatencyStats(doneAt, warmup)
	c1 := c.c.WireStats()
	dropped := c1.Dropped - c0.Dropped
	midRoute := c1.HopDropped - c0.HopDropped
	return Result{
		MeanMicros: st.MeanUS, MinMicros: st.MinUS, MaxMicros: st.MaxUS,
		StdMicros: st.StdUS, Iterations: st.Iterations,
		PacketsPerBarrier: float64(c1.Sent-c0.Sent) / float64(warmup+iters),
		Retransmissions:   c1.Retransmits - c0.Retransmits,
		DroppedPackets:    dropped,
		Drops: DropBreakdown{
			Injected: dropped - midRoute,
			MidRoute: midRoute,
			Rejected: c1.Rejected - c0.Rejected,
			Stale:    c1.Stale - c0.Stale,
		},
	}
}
