package myrinet

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// sendBuf is one of the NIC's SendPacketPool send packet buffers. A
// claimed buffer holds the send token it carries, by value, and once the
// packet is injected it is also that packet's send record: the token
// numbered with its sequence (from which the packet is rebuilt for
// retransmission) and the ACK timeout, for which the buffer is itself
// the sim.Event. The collective protocol replaces a set of these with
// one bit vector.
type sendBuf struct {
	nic   *NIC
	tok   sendToken
	sent  bool // the send record is live: injected, not yet acknowledged
	timer sim.Timer
	next  *sendBuf // free-list link
}

// Fire implements sim.Event: the ACK timeout expired.
func (b *sendBuf) Fire() { b.nic.retransmit(b) }

// tokenQueue is one destination's FIFO of send tokens. It keeps its
// storage when it drains, so a steady stream to one destination queues
// without allocating.
type tokenQueue struct {
	toks []sendToken
	head int
}

func (q *tokenQueue) empty() bool { return q.head == len(q.toks) }

// push appends t, first sliding the queued tokens down over the
// dequeued ones when the storage is full, so a queue that never drains
// does not grow with every token it has ever held.
func (q *tokenQueue) push(t sendToken) {
	if q.head > 0 && len(q.toks) == cap(q.toks) {
		n := copy(q.toks, q.toks[q.head:])
		clear(q.toks[n:])
		q.toks, q.head = q.toks[:n], 0
	}
	q.toks = append(q.toks, t)
}

// NICStats counts NIC-level protocol activity; experiments and tests read
// these to verify claims like "receiver-driven retransmission halves the
// packet count".
type NICStats struct {
	TokensEnqueued uint64
	DataSent       uint64
	AcksSent       uint64
	AcksRecv       uint64
	Retransmits    uint64
	SeqDrops       uint64
	TokenDrops     uint64
	DupAcks        uint64
	EventsPosted   uint64

	CollSent    uint64
	CollRecvd   uint64
	CollResent  uint64
	NacksSent   uint64
	NacksRecvd  uint64
	StaleColl   uint64
	BarriersRun uint64

	HeartbeatsSent  uint64
	HeartbeatsRecvd uint64
	AbortedOps      uint64
}

// NIC is the LANai model: one sequential firmware processor plus the MCP
// protocol state.
type NIC struct {
	proc
	node *Node
	net  *netsim.Network

	// p2p send side.
	queues      map[int]*tokenQueue
	rr          []int // destinations with queued tokens, sorted
	lastDst     int   // round-robin cursor over the destination space
	dispatching bool
	freePackets int
	freeBufs    *sendBuf   // released buffers, reused before new ones
	bufs        []*sendBuf // every buffer allocated so far (at most SendPacketPool)
	nextSeq     map[int]uint32

	// p2p receive side.
	expectSeq  map[int]uint32
	recvTokens int

	// The point-to-point maps above are made on first use: NICs that
	// only run the collective protocol never touch them.

	coll   collModule
	direct directModule

	// retired remembers recently uninstalled group IDs (keyed to their
	// teardown time) so that late traffic — NACK-resent duplicates that
	// were still in flight when the last member completed and the group
	// tore down — is counted as stale and dropped instead of panicking
	// as "unknown group". Entries age out once no packet for the group
	// can still exist (see retiredHorizon), so churning clusters do not
	// accumulate tombstones without bound.
	retired map[core.GroupID]sim.Time

	// tr, when non-nil, receives firmware-level trace events
	// (doorbells, NACKs, resends, stale duplicates, installs) and
	// per-group NIC-time attribution. Disabled cost: one nil check.
	tr *obs.Scope

	// OnHeartbeat, when set, receives failure-detector keepalives
	// addressed to this node. The communicator layer installs it when a
	// group enables recovery; nil (the default) drops heartbeats, and no
	// heartbeat traffic exists unless a detector is sending it.
	OnHeartbeat func(group core.GroupID, fromRank int)
	// OnNackStall, when set, is notified when a collective operation's
	// receiver-driven NACK recovery stops making progress (several
	// consecutive fruitless NACK rounds) — the escalating-retransmission
	// signal the failure detector uses to check suspicions early instead
	// of waiting out the full op deadline.
	OnNackStall func(group core.GroupID, round int)

	Stats NICStats
}

// traceEvent records a firmware-level event on this NIC's trace track.
func (n *NIC) traceEvent(group int, k obs.Kind, arg int64) {
	if n.tr != nil {
		n.tr.NICEvent(n.eng.Now(), n.node.ID, group, k, arg)
	}
}

// traceTime attributes one handler's service time (cycles at the
// firmware clock plus a fixed latency) to group's NIC decomposition
// bucket; call it alongside the exec that charges the same work.
func (n *NIC) traceTime(group int, cycles int64, fixed sim.Duration) {
	if n.tr != nil {
		n.tr.NICTime(group, sim.Cycles(cycles, n.clockMHz)+fixed)
	}
}

func newNIC(eng *sim.Engine, node *Node, net *netsim.Network) *NIC {
	n := &NIC{
		proc:        proc{eng: eng, clockMHz: node.Prof.NIC.ClockMHz},
		node:        node,
		net:         net,
		freePackets: node.Prof.NIC.SendPacketPool,
	}
	n.coll.nic = n
	n.direct.nic = n
	return n
}

// --- doorbell handlers (arrive over PCI from the host) ---

func (n *NIC) onBarrierDoorbell(groupID int, value int64) {
	n.traceEvent(groupID, obs.KindDoorbell, value)
	id := core.GroupID(groupID)
	switch {
	case n.coll.has(id):
		n.coll.start(id, value)
	case n.direct.has(id):
		n.direct.start(id)
	default:
		panic(fmt.Sprintf("myrinet: node %d: barrier doorbell for unknown group %d", n.node.ID, groupID))
	}
}

// --- p2p send pipeline ---

func (n *NIC) enqueueToken(t sendToken) {
	q := n.queues[t.peer]
	if q == nil {
		if n.queues == nil {
			n.queues = make(map[int]*tokenQueue)
		}
		q = &tokenQueue{}
		n.queues[t.peer] = q
	}
	if q.empty() {
		// Insert into the sorted pending-destination ring.
		pos := len(n.rr)
		for i, d := range n.rr {
			if d > t.peer {
				pos = i
				break
			}
		}
		n.rr = append(n.rr, 0)
		copy(n.rr[pos+1:], n.rr[pos:])
		n.rr[pos] = t.peer
	}
	q.push(t)
}

// nextToken dequeues round-robin across destination queues (Section 4.2:
// "the NIC processes the tokens to different destinations in a
// round-robin manner"). The cursor cycles the destination space, so after
// serving destination d the next pending destination above d goes first.
func (n *NIC) nextToken() (sendToken, bool) {
	if len(n.rr) == 0 {
		return sendToken{}, false
	}
	pos := 0 // wrap-around default: smallest pending destination
	for i, d := range n.rr {
		if d > n.lastDst {
			pos = i
			break
		}
	}
	dst := n.rr[pos]
	n.lastDst = dst
	q := n.queues[dst]
	tok := q.toks[q.head]
	q.toks[q.head] = sendToken{} // drop the tag reference
	q.head++
	if q.empty() {
		q.toks, q.head = q.toks[:0], 0
		n.rr = append(n.rr[:pos], n.rr[pos+1:]...)
	}
	return tok, true
}

// claimBuf takes a free send packet buffer for tok.
func (n *NIC) claimBuf(tok sendToken) *sendBuf {
	b := n.freeBufs
	if b == nil {
		b = &sendBuf{nic: n}
		n.bufs = append(n.bufs, b)
	} else {
		n.freeBufs = b.next
		b.next = nil
	}
	b.tok = tok
	return b
}

// releaseBuf returns an acknowledged buffer to the free list.
func (n *NIC) releaseBuf(b *sendBuf) {
	*b = sendBuf{nic: n, next: n.freeBufs}
	n.freeBufs = b
}

// kick advances the send pipeline: one token at a time goes through
// schedule -> packet claim -> fill (DMA) -> record -> inject.
func (n *NIC) kick() {
	if n.dispatching {
		return
	}
	if n.freePackets == 0 {
		return // stalls until an ACK frees a packet buffer
	}
	tok, ok := n.nextToken()
	if !ok {
		return
	}
	n.dispatching = true
	n.freePackets--
	p := n.node.Prof.NIC
	t := n.node.task(taskClaimed)
	t.ref = n.claimBuf(tok)
	n.exec(p.TokenSchedule+p.PacketClaim, 0, t)
}

func (n *NIC) fillPacket(b *sendBuf) {
	if b.tok.hostData && b.tok.size > 0 {
		t := n.node.task(taskFillLanded)
		t.ref = b
		n.node.Bus.DMA(b.tok.size, t)
		return
	}
	n.injectData(b)
}

func (n *NIC) injectData(b *sendBuf) {
	p := n.node.Prof.NIC
	t := n.node.task(taskInject)
	t.ref = b
	n.exec(p.PacketFill+p.SendRecord, p.SendFixed, t)
}

// inject numbers the filled packet, records it for retransmission and
// puts it on the wire.
func (n *NIC) inject(b *sendBuf) {
	if n.nextSeq == nil {
		n.nextSeq = make(map[int]uint32)
	}
	dst := b.tok.peer
	b.tok.wire = n.nextSeq[dst]
	n.nextSeq[dst] = b.tok.wire + 1
	b.sent = true
	b.timer = n.eng.AfterEvent(n.node.Prof.NIC.RetransmitTimeout, b)
	n.net.Send(n.dataPacket(&b.tok))
	n.Stats.DataSent++
	n.dispatching = false
	n.kick()
}

// dataPacket is the GM data packet carrying the numbered token tok.
func (n *NIC) dataPacket(tok *sendToken) netsim.Packet {
	kind := "data"
	group := 0
	if tok.typ == msgDirect {
		kind = "barrier-direct"
		group = int(tok.group)
	}
	return netsim.Packet{
		Src:     n.node.ID,
		Dst:     tok.peer,
		Size:    tok.size + n.node.Prof.DataHeaderBytes,
		Kind:    kind,
		Group:   group,
		Hdr:     tok.header(),
		Payload: tok.tag,
	}
}

func (n *NIC) retransmit(b *sendBuf) {
	if !b.sent {
		return
	}
	p := n.node.Prof.NIC
	n.Stats.Retransmits++
	t := n.node.task(taskRetransmit)
	t.ref, t.m.peer, t.m.wire = b, b.tok.peer, b.tok.wire
	n.exec(p.SendRecord, p.SendFixed, t)
}

// reinject re-sends the packet b recorded as (m.peer, m.wire). The
// packet buffer is still held (not released until ACK), so
// retransmission is a re-injection.
func (n *NIC) reinject(b *sendBuf, m message) {
	if !b.sent || b.tok.peer != m.peer || b.tok.wire != m.wire {
		return // ACK raced the retransmit handler
	}
	n.net.Send(n.dataPacket(&b.tok))
	b.timer = n.eng.AfterEvent(n.node.Prof.NIC.RetransmitTimeout, b)
}

// --- receive path ---

func (n *NIC) onPacket(pkt netsim.Packet) {
	m := received(pkt, n.node.Prof.DataHeaderBytes)
	p := n.node.Prof.NIC
	switch m.typ {
	case msgData, msgHostBarrier, msgDirect:
		t := n.node.task(taskData)
		t.m, t.ref = m, pkt.Payload
		n.exec(p.SeqCheck, p.RecvFixed, t)
	case msgAck:
		t := n.node.task(taskAck)
		t.m = m
		n.exec(p.AckProcess, p.RecvFixed, t)
	case msgColl:
		n.coll.onMsg(m)
	case msgNack:
		n.coll.onNack(m)
	case msgHeartbeat:
		// Keepalive filtering is a header compare in the firmware's
		// receive fast path; its cost is negligible next to a handler
		// dispatch, so none is charged.
		n.Stats.HeartbeatsRecvd++
		if n.OnHeartbeat != nil {
			n.OnHeartbeat(m.group, m.rank)
		}
	default:
		panic(fmt.Sprintf("myrinet: node %d: unknown message type %d", n.node.ID, m.typ))
	}
}

// checkData runs the sequence check on an arrived data packet; tag is
// its application tag.
func (n *NIC) checkData(m message, tag any) {
	if m.wire != n.expectSeq[m.peer] {
		// "An unexpected packet is dropped immediately."
		n.Stats.SeqDrops++
		return
	}
	if m.typ == msgDirect {
		n.accept(m)
		n.sendAck(m)
		n.direct.onArrive(m)
		return
	}
	if n.recvTokens == 0 {
		// No posted receive buffer: drop without bumping the
		// sequence; the sender's timeout recovers.
		n.Stats.TokenDrops++
		return
	}
	n.recvTokens--
	n.accept(m)
	t := n.node.task(taskDataMatched)
	t.m, t.ref = m, tag
	n.exec(n.node.Prof.NIC.RecvTokenMatch, 0, t)
}

// accept advances the expected sequence number past data packet m.
func (n *NIC) accept(m message) {
	if n.expectSeq == nil {
		n.expectSeq = make(map[int]uint32)
	}
	n.expectSeq[m.peer] = m.wire + 1
}

// sendAck replies from the NIC's static ACK packet (no claim/fill cycle) —
// the very packet the collective protocol pads with an integer to carry
// barrier notifications.
func (n *NIC) sendAck(m message) {
	p := n.node.Prof.NIC
	ack := message{typ: msgAck, peer: m.peer, wire: m.wire}
	if m.typ == msgDirect {
		ack.group = m.group
	}
	t := n.node.task(taskAckSend)
	t.m = ack
	n.exec(p.AckBuild, p.SendFixed, t)
}

// ack processes an arrived ACK for the packet (m.peer, m.wire).
func (n *NIC) ack(m message) {
	var b *sendBuf
	for _, c := range n.bufs {
		if c.sent && c.tok.peer == m.peer && c.tok.wire == m.wire {
			b = c
			break
		}
	}
	if b == nil {
		n.Stats.DupAcks++ // retransmission already acked
		return
	}
	b.timer.Cancel()
	n.releaseBuf(b)
	n.freePackets++
	n.Stats.AcksRecv++
	// GM passes the send token back to the host.
	n.postEvent(EvSendDone, message{}, nil)
	n.kick()
}

// sendStatic injects m from the static packet: a collective
// notification or a NACK.
func (n *NIC) sendStatic(m message, kind string) {
	n.net.Send(netsim.Packet{
		Src:   n.node.ID,
		Dst:   m.peer,
		Size:  n.node.Prof.BarrierBytes,
		Kind:  kind,
		Group: int(m.group),
		Hdr:   m.header(),
	})
}

// SendHeartbeat injects one failure-detector keepalive addressed to
// dstNode. The packet rides netsim like protocol traffic — crashes and
// partitions silence it exactly as they silence barrier messages — but
// charges no firmware time: keepalives are generated from a static
// packet outside the handler queue, and they exist only when a group
// runs with recovery enabled.
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

// postEvent DMAs an event record of kind k into host memory for the
// host to poll; m carries its fields and tag an EvRecv's application
// tag.
func (n *NIC) postEvent(k EventKind, m message, tag any) {
	t := n.node.task(taskEventPost)
	t.ev, t.m, t.ref = k, m, tag
	n.exec(n.node.Prof.NIC.EventPost, 0, t)
}
