// Package elan models a Quadrics QsNet cluster node: the Elan3 network
// interface (RDMA engine, events, chained RDMA descriptors) under an
// Elanlib-like host interface. Three barrier implementations from the
// paper's Section 7 and 8.2 are provided:
//
//   - the paper's NIC-based barrier: a list of chained RDMA descriptors
//     armed from user level, each triggered by the arrival of a remote
//     event, no NIC thread (Section 7);
//   - elan_gsync(): the tree-based gather-broadcast barrier driven by the
//     host at every step (the baseline the 2.48x improvement is against);
//   - elan_hgsync(): the hardware-broadcast barrier (an atomic
//     test-and-set network transaction down the NIC with switch-level
//     combining), which beats everything at scale but requires the
//     processes to be closely synchronized.
//
// QsNet provides hardware-level reliable delivery, so unlike the Myrinet
// substrate there are no ACKs, NACKs or retransmission here at all.
package elan

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/pci"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// proc is the same sequential busy-until processor used by the Myrinet
// model; the Elan3's event unit and DMA engine are much cheaper per
// operation than a LANai firmware handler, which is why it absorbs
// hot-spot arrivals gracefully (the paper's observation on PE vs DS).
type proc struct {
	eng       *sim.Engine
	clockMHz  float64
	busyUntil sim.Time
}

func (p *proc) exec(cycles int64, fixed sim.Duration, ev sim.Event) {
	start := p.eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done := start.Add(sim.Cycles(cycles, p.clockMHz)).Add(fixed)
	p.busyUntil = done
	p.eng.ScheduleEvent(done, ev)
}

// Event is a host-visible completion.
type Event struct {
	Kind     EventKind
	Group    int
	Seq      int
	FromNode int
}

// EventKind classifies host events.
type EventKind uint8

// Host event kinds.
const (
	EvBarrierDone EventKind = iota + 1
	EvRemote                // a host-level remote event fired (gsync step)
	EvHWBarrier             // hardware barrier round completed
	// evGsyncStep is an EvRemote handed back to its group's handler
	// after the host has charged gsync's tree bookkeeping (see Compute).
	evGsyncStep
)

// Node is one QsNet cluster node.
type Node struct {
	ID   int
	Prof *hwprofile.QuadricsProfile
	Bus  *pci.Bus
	Host *Host
	NIC  *NIC

	cluster *Cluster  // set by NewCluster; needed by the hardware barrier
	tasks   *taskPool // the cluster-wide pool of handler records
}

// Host models the host CPU side of Elanlib.
type Host struct {
	proc
	node *Node
	// OnEvent receives every host event not claimed by a group binding.
	OnEvent func(Event)
	// groupHandlers routes group-addressed events (chain completions,
	// gsync remote events) to the session driving that group, so
	// concurrent communicators can share one node.
	groupHandlers map[int]func(Event)
}

// Bind routes this node's events for one group ID to fn; duplicate
// bindings panic (two drivers for one group is a programming error).
func (h *Host) Bind(groupID int, fn func(Event)) {
	if fn == nil {
		panic("elan: nil group event handler")
	}
	if h.groupHandlers == nil {
		h.groupHandlers = make(map[int]func(Event))
	}
	if _, dup := h.groupHandlers[groupID]; dup {
		panic(fmt.Sprintf("elan: node %d: group %d already bound", h.node.ID, groupID))
	}
	h.groupHandlers[groupID] = fn
}

// bound reports whether a handler is already bound for the group.
func (h *Host) bound(groupID int) bool {
	_, ok := h.groupHandlers[groupID]
	return ok
}

// Unbind releases a group's event routing (the host half of teardown).
// Unbinding a group that was never bound panics. Late events for the
// group fall through to OnEvent afterwards, like any unbound group's.
func (h *Host) Unbind(groupID int) {
	if _, ok := h.groupHandlers[groupID]; !ok {
		panic(fmt.Sprintf("elan: node %d: unbinding group %d that is not bound", h.node.ID, groupID))
	}
	delete(h.groupHandlers, groupID)
}

// NIC is the Elan3 model.
type NIC struct {
	proc
	node *Node
	net  *netsim.Network

	chains map[core.GroupID]*chainOp

	// OnHeartbeat, when set, observes liveness heartbeats addressed to
	// this node (communicator-layer failure detection). Routed here, at
	// the NIC, so heartbeats ride the simulated wire and are silenced by
	// the same crashes and partitions that stall the collectives.
	OnHeartbeat func(group core.GroupID, fromRank int)

	// retired remembers recently disarmed chain IDs (keyed to their
	// disarm time): QsNet delivers reliably, so post-teardown arrivals
	// only happen when a delay-type fault holds an RDMA in flight; the
	// map makes those droppable and double-disarm loudly distinguishable
	// from never-armed IDs. Entries age out (see pruneRetired) so
	// churning clusters do not accumulate tombstones without bound.
	retired map[core.GroupID]sim.Time

	// tr, when non-nil, receives card-level trace events (doorbells,
	// completions, installs, stale arrivals) and per-group NIC-time
	// attribution. Disabled cost: one nil check per site.
	tr *obs.Scope

	Stats Stats
}

// traceEvent records a card-level event on this NIC's trace track.
func (n *NIC) traceEvent(group int, k obs.Kind, arg int64) {
	if n.tr != nil {
		n.tr.NICEvent(n.eng.Now(), n.node.ID, group, k, arg)
	}
}

// traceTime attributes one handler's service time to group's NIC
// decomposition bucket; call it alongside the exec charging that work.
func (n *NIC) traceTime(group int, cycles int64, fixed sim.Duration) {
	if n.tr != nil {
		n.tr.NICTime(group, sim.Cycles(cycles, n.clockMHz)+fixed)
	}
}

// Stats counts Elan activity.
type Stats struct {
	RDMAsSent   uint64
	EventsFired uint64
	ChainsRun   uint64
	HWBarriers  uint64
	// StaleRDMAs counts arrivals addressed to a disarmed chain (possible
	// only when a delay-type fault holds an RDMA past its group's drain).
	StaleRDMAs uint64
	// Failure-detection and abort accounting (zero unless a recovery
	// config is active on some group).
	HeartbeatsSent  uint64
	HeartbeatsRecvd uint64
	AbortedOps      uint64
}

// chainOp is a NIC-resident chained-descriptor barrier: the compiled form
// of a barrier schedule where each RDMA descriptor is triggered by the
// arrival of the remote event it waits on.
type chainOp struct {
	group   *core.Group
	state   *core.OpState
	nextSeq int
	// frozen marks a chain aborted mid-operation (deadline expiry): late
	// doorbells and arrivals count stale instead of touching state, so
	// the chain can be disarmed without waiting out in-flight RDMAs.
	frozen bool
}

// newNode builds one node attached to net whose handler records come
// from tasks.
func newNode(eng *sim.Engine, id int, prof *hwprofile.QuadricsProfile, net *netsim.Network, tasks *taskPool) *Node {
	n := &Node{
		ID:    id,
		Prof:  prof,
		Bus:   pci.New(eng, prof.PCI),
		tasks: tasks,
	}
	n.Host = &Host{proc: proc{eng: eng, clockMHz: prof.Host.ClockMHz}, node: n}
	n.NIC = &NIC{
		proc: proc{eng: eng, clockMHz: prof.NIC.ClockMHz},
		node: n,
		net:  net,
	}
	net.Attach(id, n.NIC.onPacket)
	return n
}

// deliver hands the event t carries to the host, charging the host's
// poll cost before the handler sees it.
func (h *Host) deliver(t *task) {
	t.kind = taskHostDeliver
	h.exec(h.node.Prof.Host.RecvPollCycles, 0, t)
}

// dispatch routes a polled event: group-addressed kinds to their bound
// handler, everything else (and events of unbound groups) to OnEvent.
func (h *Host) dispatch(ev Event) {
	if ev.Kind == EvBarrierDone || ev.Kind == EvRemote || ev.Kind == evGsyncStep {
		if fn := h.groupHandlers[ev.Group]; fn != nil {
			fn(ev)
			return
		}
	}
	if h.OnEvent != nil {
		h.OnEvent(ev)
	}
}

// ArmChain installs the chained-descriptor barrier for a group. The host
// sets up the descriptor list once from user level; afterwards each
// TriggerChain doorbell runs one barrier entirely on the NICs. It panics
// on failure; multi-group callers use TryArmChain.
func (n *NIC) ArmChain(g *core.Group, state *core.OpState) {
	if err := n.TryArmChain(g, state); err != nil {
		panic(fmt.Sprintf("elan: %v", err))
	}
}

// TryArmChain is ArmChain with clean errors: arming fails when the
// group's ID is already armed or the card's descriptor-list slots are
// exhausted.
func (n *NIC) TryArmChain(g *core.Group, state *core.OpState) error {
	if _, dup := n.chains[g.ID]; dup {
		return fmt.Errorf("elan: chain for group %d already armed on node %d", g.ID, n.node.ID)
	}
	if slots := n.node.Prof.NIC.ChainSlots; len(n.chains) >= slots {
		return fmt.Errorf("elan: node %d: chain slots: %w (%d of %d in use)",
			n.node.ID, core.ErrSlotsExhausted, len(n.chains), slots)
	}
	delete(n.retired, g.ID)
	if n.chains == nil { // made by the first arm
		n.chains = make(map[core.GroupID]*chainOp)
	}
	n.chains[g.ID] = &chainOp{group: g, state: state}
	return nil
}

// ChainSlotsFree reports how many chained-descriptor slots remain.
func (n *NIC) ChainSlotsFree() int {
	return n.node.Prof.NIC.ChainSlots - len(n.chains)
}

// DisarmChain retires a group's chained-descriptor list, freeing its
// Elan SRAM slot, and charges the disarm cost on the card (descriptor
// invalidation serializes with the event unit). The chain must be idle:
// disarming mid-operation panics, as armed descriptors still wait on
// remote events. Disarming an unknown chain panics — a double free.
func (n *NIC) DisarmChain(id core.GroupID) {
	op, ok := n.chains[id]
	if !ok {
		panic(fmt.Sprintf("elan: node %d: disarming unknown chain %d", n.node.ID, id))
	}
	if op.state.Active() {
		panic(fmt.Sprintf("elan: node %d: disarming chain %d mid-operation", n.node.ID, id))
	}
	delete(n.chains, id)
	if n.retired == nil {
		n.retired = make(map[core.GroupID]sim.Time)
	}
	n.retired[id] = n.eng.Now()
	n.pruneRetired()
	n.traceEvent(int(id), obs.KindUninstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupUninstallCost)
	n.exec(0, n.node.Prof.NIC.GroupUninstallCost, sim.Nop)
}

// retiredSweepLen bounds the tombstone table; pruning only runs past it.
const retiredSweepLen = 64

// pruneRetired drops tombstones old enough that no delayed RDMA can
// still be in flight: QsNet has no retransmission, so stale arrivals
// exist only under delay-type faults, and 10ms of virtual time dwarfs
// any jitter the fault models inject.
func (n *NIC) pruneRetired() {
	if len(n.retired) <= retiredSweepLen {
		return
	}
	cutoff := n.eng.Now()
	horizon := sim.Micros(10000)
	for id, at := range n.retired {
		if cutoff.Sub(at) > horizon {
			delete(n.retired, id)
		}
	}
}

// ChargeChainInstall charges the cost of arming a descriptor list on the
// simulated timeline; see the Myrinet NIC's ChargeGroupInstall for the
// setup-phase-vs-lifecycle distinction.
func (n *NIC) ChargeChainInstall(id core.GroupID) {
	delete(n.retired, id)
	n.traceEvent(int(id), obs.KindInstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupInstallCost)
	n.exec(0, n.node.Prof.NIC.GroupInstallCost, sim.Nop)
}

// TriggerChain is the host-side barrier entry: post the doorbell that
// fires the first RDMA descriptor of the armed chain.
func (h *Host) TriggerChain(groupID int) {
	t := h.node.task(taskHostTrigger)
	t.group = core.GroupID(groupID)
	h.exec(h.node.Prof.Host.SendPostCycles, 0, t)
}

func (n *NIC) mustChain(id core.GroupID) *chainOp {
	op, ok := n.chains[id]
	if !ok {
		panic(fmt.Sprintf("elan: node %d: no chain for group %d", n.node.ID, id))
	}
	return op
}

// AbortChain cancels a group's in-flight chained operation: the
// schedule state is quiesced (so DisarmChain's idle check passes) and
// the chain frozen — late doorbells and arrivals for it count stale.
// The SRAM slot stays occupied until DisarmChain, exactly as in the
// orderly path. Aborting an unknown chain panics.
func (n *NIC) AbortChain(id core.GroupID) {
	op, ok := n.chains[id]
	if !ok {
		panic(fmt.Sprintf("elan: node %d: aborting unknown chain %d", n.node.ID, id))
	}
	op.state.Abort()
	op.frozen = true
	n.Stats.AbortedOps++
	n.traceEvent(int(id), obs.KindOpTimeout, 0)
}

// SendHeartbeat emits one zero-payload liveness probe to dstNode over
// the simulated network. No NIC time is charged: the probe models a
// periodic event-unit write far below the simulator's cost resolution,
// and heartbeats must not perturb gated timelines.
func (n *NIC) SendHeartbeat(group core.GroupID, fromRank, dstNode int) {
	n.net.Send(netsim.Packet{
		Src:   n.node.ID,
		Dst:   dstNode,
		Size:  8,
		Kind:  "heartbeat",
		Group: int(group),
		Hdr:   netsim.Header{Type: msgHeartbeat, Rank: int32(fromRank)},
	})
	n.Stats.HeartbeatsSent++
}

func (n *NIC) startChain(id core.GroupID) {
	op := n.mustChain(id)
	if op.frozen {
		// A doorbell posted before the abort landed after it.
		n.Stats.StaleRDMAs++
		n.traceEvent(int(id), obs.KindStale, int64(op.nextSeq))
		return
	}
	seq := op.nextSeq
	op.nextSeq++
	n.traceEvent(int(id), obs.KindDoorbell, int64(seq))
	sends, done, err := op.state.Start(seq)
	if err != nil {
		panic(fmt.Sprintf("elan: node %d: %v", n.node.ID, err))
	}
	n.Stats.ChainsRun++
	n.fireRDMAs(op, seq, sends)
	if done {
		n.completeChain(op, seq)
	}
}

// fireRDMAs queues one descriptor per notification on the DMA engine.
func (n *NIC) fireRDMAs(op *chainOp, seq int, ranks []int) {
	p := n.node.Prof.NIC
	for _, r := range ranks {
		t := n.node.task(taskRDMASend)
		t.op, t.peer, t.group, t.seq, t.rank = op, op.group.NodeOf(r), op.group.ID, seq, op.group.MyRank
		n.traceTime(int(op.group.ID), p.DMADescCycles, p.SendFixed)
		n.exec(p.DMADescCycles, p.SendFixed, t)
	}
}

func (n *NIC) onPacket(pkt netsim.Packet) {
	switch pkt.Hdr.Type {
	case msgRDMA, msgRDMAHost:
		n.onRDMA(pkt)
	case msgHW:
		n.completeHW(int(pkt.Hdr.Seq))
	case msgHeartbeat:
		// Liveness probes bypass the event unit: no NIC time charged.
		n.Stats.HeartbeatsRecvd++
		if n.OnHeartbeat != nil {
			n.OnHeartbeat(core.GroupID(pkt.Group), int(pkt.Hdr.Rank))
		}
	default:
		panic(fmt.Sprintf("elan: node %d: unknown message type %d", n.node.ID, pkt.Hdr.Type))
	}
}

// onRDMA fires the event a zero-byte RDMA addresses. For chained barriers
// the event triggers the next descriptors; for host-level RDMAs (gsync)
// the event surfaces to the host.
func (n *NIC) onRDMA(pkt netsim.Packet) {
	p := n.node.Prof.NIC
	t := n.node.task(taskRDMAFired)
	t.peer, t.group, t.seq, t.rank = pkt.Src, core.GroupID(pkt.Group), int(pkt.Hdr.Seq), int(pkt.Hdr.Rank)
	if pkt.Hdr.Type == msgRDMAHost {
		t.ev = EvRemote
	}
	n.traceTime(pkt.Group, p.EventFireCycles, 0)
	n.exec(p.EventFireCycles, 0, t)
}

// fired runs the event unit on the RDMA w describes: a host-level one
// (w.ev == EvRemote) is written up to the host, a chained one advances
// its chain.
func (n *NIC) fired(w task) {
	p := n.node.Prof.NIC
	n.Stats.EventsFired++
	if w.ev == EvRemote {
		t := n.node.task(taskHostEvent)
		t.peer, t.group, t.seq = w.peer, w.group, w.seq
		n.traceTime(int(w.group), 0, p.HostEventWrite)
		n.exec(0, p.HostEventWrite, t)
		return
	}
	if _, gone := n.retired[w.group]; gone {
		n.Stats.StaleRDMAs++
		n.traceEvent(int(w.group), obs.KindStale, int64(w.seq))
		return
	}
	op := n.mustChain(w.group)
	if op.frozen {
		n.Stats.StaleRDMAs++
		n.traceEvent(int(w.group), obs.KindStale, int64(w.seq))
		return
	}
	sends, done, err := op.state.Arrive(w.seq, w.rank)
	if err != nil {
		panic(fmt.Sprintf("elan: node %d: %v", n.node.ID, err))
	}
	if len(sends) > 0 {
		// The chained event triggers the next descriptors.
		n.traceTime(int(w.group), p.ChainCycles, 0)
		n.exec(p.ChainCycles, 0, sim.Nop)
		n.fireRDMAs(op, op.state.Seq(), sends)
	}
	if done {
		n.completeChain(op, op.state.Seq())
	}
}

// completeChain fires the local host event of the last descriptor: "the
// completion of the very last RDMA operation will trigger a local event
// to the host process".
func (n *NIC) completeChain(op *chainOp, seq int) {
	p := n.node.Prof.NIC
	n.traceEvent(int(op.group.ID), obs.KindComplete, int64(seq))
	n.traceTime(int(op.group.ID), 0, p.HostEventWrite)
	t := n.node.task(taskChainDone)
	t.op, t.group, t.seq = op, op.group.ID, seq
	n.exec(0, p.HostEventWrite, t)
}

// Compute charges generic host CPU work, then hands ev to its
// consumer again, as a fresh poll would: host-driven barriers
// use it for bookkeeping that belongs to a specific implementation
// (gsync's tree management).
func (h *Host) Compute(cycles int64, ev Event) {
	t := h.node.task(taskHostDeliver)
	t.ev, t.group, t.seq, t.peer = ev.Kind, core.GroupID(ev.Group), ev.Seq, ev.FromNode
	h.exec(cycles, 0, t)
}

// SendRemoteEvent issues one host-initiated zero-byte RDMA that fires a
// host-visible event on the destination — the building block of the
// host-driven gsync tree barrier. It charges Elanlib's heavier gsync
// post cost.
func (h *Host) SendRemoteEvent(dstNode int, groupID, seq int) {
	if dstNode == h.node.ID {
		panic("elan: self RDMA not modeled")
	}
	t := h.node.task(taskHostRemote)
	t.peer, t.group, t.seq, t.rank = dstNode, core.GroupID(groupID), seq, -1
	h.exec(h.node.Prof.GsyncPostCycles, 0, t)
}

// Cluster is a set of Elan nodes on a quaternary fat tree.
type Cluster struct {
	Eng   *sim.Engine
	Prof  hwprofile.QuadricsProfile
	Net   *netsim.Network
	Nodes []*Node

	hw *hwBarrier
}

// NewCluster builds an n-node QsNet cluster on the smallest quaternary
// fat tree that fits.
func NewCluster(eng *sim.Engine, prof hwprofile.QuadricsProfile, n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("elan: cluster size %d", n))
	}
	t := topo.MinFatTree(prof.FatTreeArity, n)
	net := netsim.New(eng, t, prof.Net, netsim.NoLoss{})
	cl := &Cluster{Eng: eng, Prof: prof, Net: net}
	tasks := &taskPool{}
	for i := 0; i < n; i++ {
		node := newNode(eng, i, &cl.Prof, net, tasks)
		node.cluster = cl
		cl.Nodes = append(cl.Nodes, node)
	}
	cl.hw = newHWBarrier(cl)
	return cl
}

// SetTracer attaches an observability scope: the network records packet
// lifecycle events on it and every NIC records card-level events plus
// per-group NIC-time attribution. nil detaches. Tracing never alters
// the simulated timeline; untraced cost is one nil check per site.
func (cl *Cluster) SetTracer(sc *obs.Scope) {
	cl.Net.SetTracer(sc)
	for _, node := range cl.Nodes {
		node.NIC.tr = sc
	}
}

// SetFaults installs a fault-injection impairment on the cluster's
// network, wrapped in netsim.DelayOnly: QsNet provides hardware-level
// reliable delivery, so link-loss effects (drop, reject, blocking) are
// stripped and only latency-type effects (delay, jitter, throttling)
// take hold. Fail-stop outcomes (fault.Crash) pass through — hardware
// reliability recovers lost packets, not dead endpoints — so a crashed
// node silences a Quadrics cluster exactly as it does a Myrinet one.
// A link-loss-only plan still leaves a Quadrics cluster's behavior
// bit-identical to the fault-free run.
func (cl *Cluster) SetFaults(imp netsim.Impairment) {
	if imp == nil {
		cl.Net.SetImpairment(nil)
		return
	}
	cl.Net.SetImpairment(netsim.DelayOnly{Inner: imp})
}

// Levels reports the fat-tree depth, which the hardware barrier's cost
// scales with.
func (cl *Cluster) Levels() int { return cl.Net.Topology().Levels() }

// Stats sums NIC statistics over all nodes.
func (cl *Cluster) Stats() Stats {
	var total Stats
	for _, node := range cl.Nodes {
		total.RDMAsSent += node.NIC.Stats.RDMAsSent
		total.EventsFired += node.NIC.Stats.EventsFired
		total.ChainsRun += node.NIC.Stats.ChainsRun
		total.HWBarriers += node.NIC.Stats.HWBarriers
		total.StaleRDMAs += node.NIC.Stats.StaleRDMAs
		total.HeartbeatsSent += node.NIC.Stats.HeartbeatsSent
		total.HeartbeatsRecvd += node.NIC.Stats.HeartbeatsRecvd
		total.AbortedOps += node.NIC.Stats.AbortedOps
	}
	return total
}
