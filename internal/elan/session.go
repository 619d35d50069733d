package elan

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
)

// Scheme selects a Quadrics barrier implementation.
type Scheme int

// The barrier implementations of Fig. 7.
const (
	// SchemeChained is the paper's NIC-based barrier: chained RDMA
	// descriptors, each triggered by a remote event.
	SchemeChained Scheme = iota
	// SchemeGsync is Elanlib's tree-based elan_gsync() (host-driven
	// gather-broadcast, hardware broadcast disabled).
	SchemeGsync
	// SchemeHW is elan_hgsync()'s hardware-broadcast barrier.
	SchemeHW
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeChained:
		return "nic-chained-rdma"
	case SchemeGsync:
		return "elan-gsync"
	case SchemeHW:
		return "elan-hw"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SessionGroupID is the group ID single-session constructors install.
const SessionGroupID = 1

// Session runs consecutive barriers over a subset of an Elan cluster.
// The embedded core.Loop owns the run bookkeeping; the session owns the
// Quadrics side: chain arming, posting a barrier on a node, and card
// teardown. Chained and gsync sessions carry their own group ID and can
// coexist on one cluster; the hardware barrier is a cluster-singleton
// network transaction and supports one open session at a time.
type Session struct {
	core.Loop
	cl      *Cluster
	gid     core.GroupID
	scheme  Scheme
	members []member // index is the rank
}

type member struct {
	s     *Session
	rank  int
	node  *Node
	group *core.Group
	// hostOp drives the gsync tree from the host; nil otherwise.
	hostOp *core.OpState
	// hwSeq tracks hardware-barrier rounds for this member.
	hwSeq int
}

// NewSession prepares a barrier session on group SessionGroupID over
// nodeIDs (rank order; the harness passes a random permutation).
// alg/opts select the schedule for SchemeChained; SchemeGsync always
// uses the gather-broadcast tree (that is what elan_gsync is) and
// SchemeHW uses none. It panics on installation failure.
func NewSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	s, err := NewSessionWithID(cl, SessionGroupID, nodeIDs, scheme, alg, opts)
	if err != nil {
		panic(fmt.Sprintf("elan: %v", err))
	}
	return s
}

// NewSessionWithID prepares a barrier session on an explicit group ID,
// failing cleanly when a member card's chain slots are exhausted or the
// ID is already armed on a member.
func NewSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	alg barrier.Algorithm, opts barrier.Options) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("elan: empty session")
	}
	// Pre-validate the whole membership before touching any card or host
	// state, so failed constructions leave the cluster untouched.
	if scheme == SchemeHW && cl.hw.members != nil {
		return nil, fmt.Errorf("elan: hardware barrier already held by an open session (one per cluster)")
	}
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("elan: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		switch scheme {
		case SchemeChained:
			if node.NIC.ChainSlotsFree() <= 0 {
				return nil, fmt.Errorf("elan: node %d: chain slots: %w (%d in use)",
					id, core.ErrSlotsExhausted, node.Prof.NIC.ChainSlots)
			}
			fallthrough
		case SchemeGsync:
			if node.Host.bound(int(gid)) {
				return nil, fmt.Errorf("elan: node %d: group %d already bound", id, gid)
			}
			if _, dup := node.NIC.chains[gid]; dup {
				return nil, fmt.Errorf("elan: chain for group %d already armed on node %d", gid, id)
			}
		}
	}
	s := &Session{cl: cl, gid: gid, scheme: scheme, members: make([]member, len(nodeIDs))}
	s.Init(cl.Eng, "elan "+scheme.String(), len(nodeIDs), false, false, s.start)
	if scheme == SchemeHW {
		cl.hw.configure(nodeIDs)
	}
	base := core.NewGroup(gid, append([]int(nil), nodeIDs...), 0)
	for rank, id := range nodeIDs {
		m := &s.members[rank]
		*m = member{s: s, rank: rank, node: cl.Nodes[id], group: base.WithRank(rank)}
		switch scheme {
		case SchemeChained:
			sched := barrier.New(alg, len(nodeIDs), rank, opts)
			if err := m.node.NIC.TryArmChain(m.group, core.NewOpState(sched)); err != nil {
				return nil, err
			}
			m.node.Host.Bind(int(gid), m.onEvent)
		case SchemeGsync:
			sched := barrier.New(barrier.GatherBroadcast, len(nodeIDs), rank, opts)
			m.hostOp = core.NewOpState(sched)
			m.node.Host.Bind(int(gid), m.onEvent)
		case SchemeHW:
			// No schedule: one network transaction synchronizes all. HW
			// completions carry no group, so they flow through the plain
			// event hook — one HW session per cluster, like the hardware.
			m.node.Host.OnEvent = m.onEvent
		default:
			panic(fmt.Sprintf("elan: unknown scheme %d", int(scheme)))
		}
	}
	return s, nil
}

// Close tears the session down. Chained sessions disarm every member's
// descriptor list (freeing the Elan SRAM slot, the disarm cost charged
// on the card) and release the host binding; gsync sessions only release
// the binding (the tree lives in host memory); hardware-barrier sessions
// detach the singleton event hook and release the network transaction
// for a future session. The session must have drained — Close mid-run
// panics. A closed session cannot be relaunched.
func (s *Session) Close() {
	s.Loop.Close()
	for _, m := range s.members {
		switch s.scheme {
		case SchemeChained:
			m.node.NIC.DisarmChain(s.gid)
			m.node.Host.Unbind(int(s.gid))
		case SchemeGsync:
			m.node.Host.Unbind(int(s.gid))
		case SchemeHW:
			m.node.Host.OnEvent = nil
		}
	}
	if s.scheme == SchemeHW {
		s.cl.hw.release()
	}
}

// Abort cancels the current run mid-flight: pending NextAt deferrals
// are cancelled, gsync host-side schedule state is quiesced, and each
// member card's chain is frozen, leaving descriptor-slot accounting
// consistent for the Close that must follow. Idle, finished, and
// closed sessions abort as a no-op.
func (s *Session) Abort() {
	if !s.Loop.Abort() {
		return
	}
	for _, m := range s.members {
		if m.hostOp != nil {
			m.hostOp.Abort()
		}
		if s.scheme == SchemeChained {
			m.node.NIC.AbortChain(s.gid)
		}
	}
}

// ChargeInstall charges every member card's chain-install cost on the
// simulated timeline (chained sessions only; the other schemes keep no
// NIC-resident per-group state). See the Myrinet session's ChargeInstall
// for the setup-phase-vs-lifecycle distinction.
func (s *Session) ChargeInstall() {
	if s.scheme != SchemeChained {
		return
	}
	for i := range s.members {
		s.members[i].node.NIC.ChargeChainInstall(s.gid)
	}
}

// start posts absolute barrier #seq on rank's node; the core.Loop calls
// it for every post.
func (s *Session) start(rank, seq int) {
	m := &s.members[rank]
	switch s.scheme {
	case SchemeChained:
		m.node.Host.TriggerChain(int(s.gid))
	case SchemeHW:
		m.node.Host.PostHWBarrier()
	case SchemeGsync:
		sends, done, err := m.hostOp.Start(seq)
		if err != nil {
			panic(fmt.Sprintf("elan: rank %d: %v", rank, err))
		}
		m.gsyncSend(seq, sends)
		if done {
			s.Complete(rank, seq)
		}
	}
}

func (m *member) gsyncSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node.Host.SendRemoteEvent(m.group.NodeOf(r), int(m.s.gid), seq)
	}
}

func (m *member) onEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.Complete(m.rank, ev.Seq)
	case EvHWBarrier:
		seq := m.hwSeq
		m.hwSeq++
		m.s.Complete(m.rank, seq)
	case EvRemote:
		// Elanlib's tree bookkeeping is heavier than the bare poll
		// already charged by event delivery.
		ev.Kind = evGsyncStep
		m.node.Host.Compute(m.node.Prof.GsyncPollExtraCycles, ev)
	case evGsyncStep:
		fromRank, ok := m.group.RankOf(ev.FromNode)
		if !ok {
			panic(fmt.Sprintf("elan: gsync event from non-member node %d", ev.FromNode))
		}
		sends, done, err := m.hostOp.Arrive(ev.Seq, fromRank)
		if err != nil {
			panic(fmt.Sprintf("elan: rank %d: %v", m.rank, err))
		}
		m.gsyncSend(m.hostOp.Seq(), sends)
		if done {
			m.s.Complete(m.rank, m.hostOp.Seq())
		}
	}
}
