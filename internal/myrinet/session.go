package myrinet

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
)

// Scheme selects how barriers are executed on a Myrinet cluster.
type Scheme int

// The three schemes the paper evaluates on Myrinet.
const (
	// SchemeHost: the host drives every step through plain GM
	// point-to-point sends and receive events (the baseline of
	// Figs. 5 and 6).
	SchemeHost Scheme = iota
	// SchemeDirect: the earlier NIC-based barrier on top of the p2p
	// protocol (Buntinas et al.), the ablation baseline.
	SchemeDirect
	// SchemeCollective: the paper's NIC-based collective protocol.
	SchemeCollective
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeHost:
		return "host"
	case SchemeDirect:
		return "nic-direct"
	case SchemeCollective:
		return "nic-collective"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Session runs consecutive collective operations over a subset of a
// cluster's nodes. The embedded core.Loop owns the run bookkeeping
// (Launch, Run, Reset, the NextAt and OnIterDone hooks); the session
// owns the Myrinet side: group install, posting an operation on a node,
// and NIC teardown. Each session owns one group ID; several sessions
// with distinct IDs can coexist on one cluster (the communicator layer
// builds multi-tenant workloads that way), with per-node event routing
// keyed on the group ID.
type Session struct {
	core.Loop
	cl      *Cluster
	gid     core.GroupID
	scheme  Scheme
	members []member // index is the rank
	// contrib supplies each rank's allreduce contribution per run-local
	// iteration; nil for barriers and broadcasts.
	contrib func(rank, iter int) int64
}

type member struct {
	s     *Session
	rank  int
	node  *Node
	group *core.Group
	// Host-side schedule state, used only by SchemeHost.
	hostOp *core.OpState
}

// hostBarrierTag tags host-scheme barrier messages on the wire.
type hostBarrierTag struct {
	group core.GroupID
	seq   int
}

// SessionGroupID is the group ID single-session constructors install,
// mirroring MPI_COMM_WORLD. Multi-group callers pass their own IDs via
// the WithID constructors.
const SessionGroupID = 1

// NewSession prepares a barrier session on group SessionGroupID. nodeIDs
// lists the participating node IDs in rank order (the harness passes a
// random permutation, as the paper does); alg and opts pick the barrier
// algorithm. It panics on installation failure — the single-session
// constructors exist for the one-group measurement loops, where a full
// group table is a programming error.
func NewSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	s, err := NewSessionWithID(cl, SessionGroupID, nodeIDs, scheme, alg, opts)
	if err != nil {
		panic(fmt.Sprintf("myrinet: %v", err))
	}
	return s
}

// NewSessionWithID prepares a barrier session on an explicit group ID,
// failing cleanly when a member NIC's group-queue slots are exhausted or
// the ID is already installed on a member.
func NewSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	alg barrier.Algorithm, opts barrier.Options) (*Session, error) {
	scheds := make([]barrier.Schedule, len(nodeIDs))
	for rank := range nodeIDs {
		scheds[rank] = barrier.New(alg, len(nodeIDs), rank, opts)
	}
	return newSession(cl, gid, nodeIDs, scheme, scheds, false, 0, nil)
}

// NewBroadcastSessionWithID prepares a NIC-based broadcast session (the
// extension of the paper's future-work section) on group gid: the
// root's notification fans down a d-ary tree entirely on the NICs via
// the collective protocol. Iterations are globally gated, since a
// broadcast does not synchronize its participants.
func NewBroadcastSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, root, degree int) (*Session, error) {
	scheds := make([]barrier.Schedule, len(nodeIDs))
	for rank := range nodeIDs {
		scheds[rank] = barrier.BroadcastTree(len(nodeIDs), rank, root, degree)
	}
	return newSession(cl, gid, nodeIDs, SchemeCollective, scheds, true, 0, nil)
}

// NewAllreduceSessionWithID prepares a NIC-based single-word allreduce
// over the collective protocol on group gid. contrib supplies each
// rank's contribution per iteration; results are collected per iteration
// and retrievable with Results after Run.
func NewAllreduceSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int,
	alg barrier.Algorithm, opts barrier.Options,
	op core.ReduceOp, contrib func(rank, iter int) int64) (*Session, error) {
	// Validate the operator/schedule combination before touching NICs.
	if err := core.CheckReduce(op, alg, len(nodeIDs)); err != nil {
		return nil, err
	}
	scheds := make([]barrier.Schedule, len(nodeIDs))
	for rank := range nodeIDs {
		scheds[rank] = barrier.New(alg, len(nodeIDs), rank, opts)
	}
	return newSession(cl, gid, nodeIDs, SchemeCollective, scheds, false, op, contrib)
}

// newSession installs the group on every member; a non-nil contrib
// makes it an allreduce over the collective protocol with operator op.
func newSession(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	scheds []barrier.Schedule, gated bool, op core.ReduceOp, contrib func(rank, iter int) int64) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("myrinet: empty session")
	}
	// Pre-check the whole membership before any NIC or host state is
	// touched, so failed constructions leave the cluster exactly as it
	// was (no half-installed groups, no dangling event bindings).
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("myrinet: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		if node.Host.bound(int(gid)) {
			return nil, fmt.Errorf("myrinet: node %d: group %d already bound", id, gid)
		}
		if scheme != SchemeHost {
			if err := node.NIC.checkSlot(gid); err != nil {
				return nil, err
			}
		}
	}
	s := &Session{cl: cl, gid: gid, scheme: scheme, contrib: contrib,
		members: make([]member, len(nodeIDs))}
	s.Init(cl.Eng, "myrinet "+scheme.String(), len(nodeIDs), gated, contrib != nil, s.start)
	base := core.NewGroup(gid, append([]int(nil), nodeIDs...), 0)
	for rank, id := range nodeIDs {
		m := &s.members[rank]
		*m = member{s: s, rank: rank, node: cl.Nodes[id], group: base.WithRank(rank)}
		var err error
		switch {
		case contrib != nil:
			err = m.node.NIC.InstallReduceGroup(m.group, scheds[rank], op)
		case scheme == SchemeHost:
			m.hostOp = core.NewOpState(scheds[rank])
			// Pre-post a pool of receive buffers; each consumed event
			// is replenished during the run.
			m.node.Host.PostRecvTokens(len(scheds[rank].ExpectedArrivals()) + 4)
		case scheme == SchemeDirect:
			err = m.node.NIC.InstallDirectGroup(m.group, scheds[rank])
		case scheme == SchemeCollective:
			err = m.node.NIC.InstallCollectiveGroup(m.group, scheds[rank])
		default:
			panic(fmt.Sprintf("myrinet: unknown scheme %d", int(scheme)))
		}
		if err != nil {
			return nil, err
		}
		m.node.Host.Bind(int(gid), m.onEvent)
	}
	return s, nil
}

// Close tears the session down: every member NIC's group-queue slot is
// freed — the teardown cost charged on its firmware processor, so
// co-resident groups feel it — and the host-side event binding released.
// The session must have drained; closing mid-run panics, since member
// bit vectors still expect arrivals. Host-scheme sessions hold no NIC
// slot, so only the host binding is released (posted receive tokens stay
// with the NIC, as GM's do). A closed session cannot be relaunched.
func (s *Session) Close() {
	s.Loop.Close()
	for _, m := range s.members {
		if s.scheme != SchemeHost {
			m.node.NIC.UninstallGroup(s.gid)
		}
		m.node.Host.Unbind(int(s.gid))
	}
}

// Abort cancels the current run mid-flight: pending NextAt deferrals
// are cancelled, host-side schedule state is quiesced, and each member
// NIC's group op is frozen (late doorbells, arrivals, and NACKs count
// stale instead of touching state), leaving NIC slot accounting
// consistent for the Close that must follow. Idle, finished, and
// closed sessions abort as a no-op. Abort does not free the NIC slots
// — Close does, exactly as in the orderly path.
func (s *Session) Abort() {
	if !s.Loop.Abort() {
		return
	}
	for _, m := range s.members {
		if m.hostOp != nil {
			m.hostOp.Abort()
		}
		if s.scheme != SchemeHost {
			m.node.NIC.AbortGroup(s.gid)
		}
	}
}

// ChargeInstall charges every member NIC's group-install cost on the
// simulated timeline. The constructors install for free (setup phase,
// like MPI_Init); lifecycle-aware callers — the communicator layer's
// admission scheduler — call this right after construction so that
// installs performed while the cluster is live delay co-resident
// groups' firmware handlers, as real SRAM writes would.
func (s *Session) ChargeInstall() {
	if s.scheme == SchemeHost {
		return // no NIC-resident state to write
	}
	for i := range s.members {
		s.members[i].node.NIC.ChargeGroupInstall(s.gid)
	}
}

// start posts absolute operation #seq on rank's node; the core.Loop
// calls it for every post.
func (s *Session) start(rank, seq int) {
	m := &s.members[rank]
	if s.contrib != nil {
		m.node.Host.PostReduce(int(s.gid), s.contrib(rank, seq-s.Base()))
		return
	}
	switch s.scheme {
	case SchemeHost:
		sends, done, err := m.hostOp.Start(seq)
		if err != nil {
			panic(fmt.Sprintf("myrinet: rank %d: %v", rank, err))
		}
		m.hostSend(seq, sends)
		if done {
			s.Complete(rank, seq)
		}
	default:
		m.node.Host.PostBarrier(int(s.gid))
	}
}

func (m *member) hostSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node.Host.Send(m.group.NodeOf(r), 8,
			hostBarrierTag{group: m.group.ID, seq: seq}, true)
	}
}

func (m *member) onEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.Record(m.rank, ev.Seq, ev.Value)
		m.s.Complete(m.rank, ev.Seq)
	case EvRecv:
		tag, ok := ev.Tag.(hostBarrierTag)
		if !ok {
			return // not barrier traffic; ignore
		}
		// Replenish the receive buffer consumed by this message.
		m.node.Host.PostRecvTokens(1)
		fromRank, ok := m.group.RankOf(ev.FromNode)
		if !ok {
			panic(fmt.Sprintf("myrinet: barrier message from non-member node %d", ev.FromNode))
		}
		sends, done, err := m.hostOp.Arrive(tag.seq, fromRank)
		if err != nil {
			panic(fmt.Sprintf("myrinet: rank %d: %v", m.rank, err))
		}
		m.hostSend(m.hostOp.Seq(), sends)
		if done {
			m.s.Complete(m.rank, m.hostOp.Seq())
		}
	case EvSendDone:
		// Send completions are consumed (host cost already charged) and
		// ignored by the barrier loop.
	}
}
