package comm

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// backend is one interconnect under a Cluster (see the package comment);
// a new interconnect plugs in as one more implementation in this file.
type backend interface {
	// slotsFree reports the free group slots on one node's NIC.
	slotsFree(node int) int
	// slotted reports whether gc claims a NIC group slot on every
	// member; host-driven schemes keep no per-group NIC state.
	slotted(gc GroupConfig) bool
	// checkKind rejects op kinds the interconnect does not model.
	checkKind(k OpKind) error
	// recoverable rejects configurations fail-stop recovery cannot
	// drive (see recovery.go).
	recoverable(gc GroupConfig) error
	// bind installs a session for the validated gc under group ID gid,
	// returning its NIC side and its run core.
	bind(gc GroupConfig, gid core.GroupID) (session, *core.Loop, error)
	// setTracer attaches an observability scope to the network and NICs.
	setTracer(sc *obs.Scope)
	// wireStats snapshots the wire and recovery accounting.
	wireStats() WireStats
	// sendHeartbeat emits one liveness probe from fromNode to dstNode.
	sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int)
}

// Cluster multiplexes process groups over one simulated cluster. A
// Cluster (like everything below the engine) is single-threaded;
// independent Clusters on independent engines may run from parallel
// goroutines.
type Cluster struct {
	Eng *sim.Engine
	// My and El expose the interconnect underneath for backend tests and
	// per-backend counters (WireStats is the neutral snapshot); exactly
	// one is set.
	My *myrinet.Cluster
	El *elan.Cluster

	be      backend
	nodes   int
	nextGID core.GroupID
	groups  []*Group
	sched   *sched

	// tr, when non-nil, is the observability scope the workload engines
	// emit per-operation spans and per-tenant metrics into.
	tr *obs.Scope

	// hbRoute routes heartbeat deliveries and NACK-stall signals to the
	// recovery that owns each group ID; nil until the first SetRecovery
	// (see recovery.go).
	hbRoute map[core.GroupID]*recovery
}

// NewCluster builds an n-node cluster on eng from prof and layers a
// communicator over it. It is the one place a hardware profile selects
// an interconnect: a MyrinetProfile builds Myrinet, a QuadricsProfile
// Quadrics. loss (nil: none) drops packets on the wire and faults (nil:
// none) impairs the network; Quadrics links are reliable in hardware,
// so it ignores loss and passes only the delay-type fault effects.
func NewCluster(eng *sim.Engine, prof hwprofile.Profile, n int, loss netsim.LossModel, faults netsim.Impairment) *Cluster {
	switch p := prof.(type) {
	case hwprofile.MyrinetProfile:
		cl := myrinet.NewCluster(eng, p, n, loss)
		cl.SetFaults(faults)
		return OverMyrinet(cl)
	case hwprofile.QuadricsProfile:
		cl := elan.NewCluster(eng, p, n)
		cl.SetFaults(faults)
		return OverElan(cl)
	}
	panic(fmt.Sprintf("comm: no backend for hardware profile %T", prof))
}

// WireStats is one moment's cluster-wide wire and recovery accounting;
// callers measure by differencing two snapshots.
type WireStats struct {
	Sent, Dropped, HopDropped, Rejected uint64 // network packets (see netsim.Counters)
	Retransmits                         uint64 // NIC resends of lost traffic; Quadrics never resends
	Stale                               uint64 // late or duplicate collective arrivals NICs discarded
}

// WireStats snapshots the cluster's wire and recovery accounting.
func (c *Cluster) WireStats() WireStats { return c.be.wireStats() }

// netStats fills a snapshot's network counters.
func netStats(net *netsim.Network) WireStats {
	n := net.Counters()
	return WireStats{Sent: n.Sent, Dropped: n.Dropped, HopDropped: n.HopDropped, Rejected: n.Rejected}
}

// OverMyrinet builds a communicator layer over a Myrinet cluster. Its
// NICs report heartbeats and NACK stalls to the groups' recoveries.
func OverMyrinet(cl *myrinet.Cluster) *Cluster {
	c := &Cluster{Eng: cl.Eng, My: cl, be: myrinetBackend{cl}, nodes: len(cl.Nodes), nextGID: myrinet.SessionGroupID}
	c.sched = newSched(c, cl.Prof.NIC.GroupQueueSlots)
	onHB, onStall := c.heard, c.nackStall
	for _, n := range cl.Nodes {
		n.NIC.OnHeartbeat = onHB
		n.NIC.OnNackStall = onStall
	}
	return c
}

// OverElan builds a communicator layer over a Quadrics cluster. Its
// NICs report heartbeats to the groups' recoveries.
func OverElan(cl *elan.Cluster) *Cluster {
	c := &Cluster{Eng: cl.Eng, El: cl, be: elanBackend{cl}, nodes: len(cl.Nodes), nextGID: elan.SessionGroupID}
	c.sched = newSched(c, cl.Prof.NIC.ChainSlots)
	onHB := c.heard
	for _, n := range cl.Nodes {
		n.NIC.OnHeartbeat = onHB
	}
	return c
}

// nicResident returns gc running each interconnect's NIC-resident
// collective scheme — the schemes the workload engines use, and the
// only ones fail-stop recovery supports.
func nicResident(gc GroupConfig) GroupConfig {
	gc.MyrinetScheme = myrinet.SchemeCollective
	gc.ElanScheme = elan.SchemeChained
	return gc
}

// myrinetBackend runs groups on Myrinet: barriers under any scheme,
// broadcast and allreduce over the NIC collective protocol.
type myrinetBackend struct{ cl *myrinet.Cluster }

func (b myrinetBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.GroupSlotsFree() }

func (b myrinetBackend) slotted(gc GroupConfig) bool {
	return gc.Kind != OpBarrier || gc.MyrinetScheme != myrinet.SchemeHost
}

func (b myrinetBackend) checkKind(OpKind) error { return nil }

func (b myrinetBackend) recoverable(gc GroupConfig) error {
	if gc.Kind == OpBarrier && gc.MyrinetScheme != myrinet.SchemeCollective {
		return fmt.Errorf("comm: recovery requires the NIC collective scheme on Myrinet (%v rides p2p retransmission)", gc.MyrinetScheme)
	}
	return nil
}

func (b myrinetBackend) bind(gc GroupConfig, gid core.GroupID) (session, *core.Loop, error) {
	var s *myrinet.Session
	var err error
	switch gc.Kind {
	case OpBroadcast:
		degree := gc.Degree
		if degree == 0 {
			degree = 4
		}
		s, err = myrinet.NewBroadcastSessionWithID(b.cl, gid, gc.Members, gc.Root, degree)
	case OpAllreduce:
		s, err = myrinet.NewAllreduceSessionWithID(b.cl, gid, gc.Members, gc.Algorithm, gc.Options, gc.Reduce, gc.Contrib)
	default:
		s, err = myrinet.NewSessionWithID(b.cl, gid, gc.Members, gc.MyrinetScheme, gc.Algorithm, gc.Options)
	}
	if err != nil {
		return nil, nil, err
	}
	return s, &s.Loop, nil
}

func (b myrinetBackend) setTracer(sc *obs.Scope) { b.cl.SetTracer(sc) }

func (b myrinetBackend) wireStats() WireStats {
	st, nic := netStats(b.cl.Net), b.cl.Stats()
	st.Retransmits, st.Stale = nic.Retransmits+nic.CollResent, nic.StaleColl
	return st
}

func (b myrinetBackend) sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int) {
	b.cl.Nodes[fromNode].NIC.SendHeartbeat(gid, fromRank, dstNode)
}

// elanBackend runs barrier groups on Quadrics; the paper's chained-RDMA
// list is a barrier structure, so no other kind is modeled.
type elanBackend struct{ cl *elan.Cluster }

func (b elanBackend) slotsFree(node int) int { return b.cl.Nodes[node].NIC.ChainSlotsFree() }

func (b elanBackend) slotted(gc GroupConfig) bool { return gc.ElanScheme == elan.SchemeChained }

func (b elanBackend) checkKind(k OpKind) error {
	if k != OpBarrier {
		return fmt.Errorf("comm: %v is modeled on Myrinet only (Quadrics groups run barriers)", k)
	}
	return nil
}

func (b elanBackend) recoverable(gc GroupConfig) error {
	if gc.ElanScheme != elan.SchemeChained {
		return fmt.Errorf("comm: recovery requires the chained-RDMA scheme on Quadrics (%v is host-driven)", gc.ElanScheme)
	}
	return nil
}

func (b elanBackend) bind(gc GroupConfig, gid core.GroupID) (session, *core.Loop, error) {
	s, err := elan.NewSessionWithID(b.cl, gid, gc.Members, gc.ElanScheme, gc.Algorithm, gc.Options)
	if err != nil {
		return nil, nil, err
	}
	return s, &s.Loop, nil
}

func (b elanBackend) setTracer(sc *obs.Scope) { b.cl.SetTracer(sc) }

func (b elanBackend) wireStats() WireStats {
	st := netStats(b.cl.Net)
	st.Stale = b.cl.Stats().StaleRDMAs
	return st
}

func (b elanBackend) sendHeartbeat(gid core.GroupID, fromNode, fromRank, dstNode int) {
	b.cl.Nodes[fromNode].NIC.SendHeartbeat(gid, fromRank, dstNode)
}
