package myrinet

import (
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
)

// Message types carried in netsim.Header.Type. The first three ride the
// GM point-to-point data path (sequence check, receive token, ACK); the
// rest are the static-packet traffic of the collective protocol.
const (
	msgData        uint8 = iota + 1 // GM data; Packet.Payload is the application tag
	msgHostBarrier                  // GM data tagged as a host-scheme barrier message
	msgDirect                       // GM data carrying a direct-scheme barrier notification
	msgAck
	msgColl
	msgNack
	msgHeartbeat
)

// message is the protocol content of one NIC message, in whichever form
// it is traveling: a send token queued for the point-to-point pipeline,
// a packet header, a handler record working on an arrival, or a host
// event about to be posted.
type message struct {
	typ      uint8
	hostData bool // send tokens: the payload lives in host memory
	wire     uint32
	peer     int // the destination of a send, the source of an arrival
	size     int // data payload bytes
	group    core.GroupID
	seq      int
	rank     int // the sending rank, or the rank a NACK asks about
	value    int64
}

// header encodes m's protocol words for the wire.
func (m message) header() netsim.Header {
	h := netsim.Header{Type: m.typ, Wire: m.wire, Seq: int32(m.seq), Rank: int32(m.rank), Value: m.value}
	if m.typ == msgHostBarrier {
		h.Tag = int32(m.group) // the packet itself is ungrouped p2p data
	}
	return h
}

// received decodes an arrived packet's header. The group travels in the
// packet header's Group field, except for host-scheme barrier messages,
// which are ungrouped point-to-point traffic tagged with theirs.
func received(pkt netsim.Packet, dataHeader int) message {
	h := pkt.Hdr
	m := message{typ: h.Type, wire: h.Wire, peer: pkt.Src, group: core.GroupID(pkt.Group),
		seq: int(h.Seq), rank: int(h.Rank), value: h.Value}
	switch h.Type {
	case msgData, msgHostBarrier, msgDirect:
		m.size = pkt.Size - dataHeader
	}
	if h.Type == msgHostBarrier {
		m.group = core.GroupID(h.Tag)
	}
	return m
}

// sendToken is the NIC-side form of a send request (GM's "send token").
type sendToken struct {
	message
	tag any // msgData: the application tag
}

// taskKind names one step of a host, bus or firmware handler chain.
type taskKind uint8

const (
	// Host CPU.
	taskHostSend        taskKind = iota // send descriptor built: ring the doorbell
	taskHostTokenPost                   // receive buffer posted: ring the doorbell
	taskHostBarrierPost                 // barrier or reduce descriptor built: ring the doorbell
	taskHostDeliver                     // event record polled: hand it to its consumer
	// PCI bus.
	taskSendDoorbell    // send doorbell landed on the NIC
	taskTokenDoorbell   // receive-buffer doorbell landed
	taskBarrierDoorbell // barrier doorbell landed
	taskFillLanded      // send payload DMAed into the send packet
	taskDataLanded      // received payload DMAed into host memory
	taskEventLanded     // event record DMAed into host memory
	// NIC firmware, point-to-point protocol.
	taskTokenTranslated // send token translated: queue it
	taskTokenPosted     // receive token recorded
	taskClaimed         // send packet claimed: fill it
	taskInject          // send packet filled and recorded: inject it
	taskRetransmit      // re-inject an unacknowledged packet
	taskData            // data packet arrived: sequence check
	taskDataMatched     // receive token matched: DMA the payload up
	taskAckSend         // static ACK packet built: inject it
	taskAck             // ACK arrived
	taskEventPost       // host event record built: DMA it up
	// NIC firmware, barrier schemes.
	taskCollStart      // collective doorbell enqueued
	taskCollSend       // static packet triggered by the schedule
	taskCollResend     // static packet triggered by a NACK
	taskCollRecv       // collective notification arrived
	taskCollComplete   // collective operation complete: post the event
	taskNackSend       // NACK built: inject it
	taskNackRecv       // NACK arrived
	taskDirectStart    // direct-scheme doorbell translated
	taskDirectRecv     // direct-scheme notification accepted
	taskDirectComplete // direct-scheme operation complete: post the event
)

// task is one pending host, bus or firmware handler: the typed,
// closure-free form of "run this step when the processor gets to it".
// A task is scheduled as its own sim.Event and dispatches on kind when
// it fires. Tasks come from the cluster's taskPool and go back to it
// when their chain ends, so steady-state firmware allocates nothing.
type task struct {
	next *task // pool free-list link
	node *Node
	// ref is the one reference a kind needs: the group entry a doorbell
	// starts (*collOp, *directOp), the send buffer a send or
	// retransmission works on (*sendBuf), or a GM message's application
	// tag.
	ref  any
	kind taskKind
	ev   EventKind // taskEventPost onwards: the host event being posted
	m    message
}

// taskPool is a cluster's free list of tasks. All nodes of a cluster
// share one pool, so the records kept alive are bounded by the
// cluster's peak number of pending handlers, not the sum of every
// processor's peak.
type taskPool struct {
	free *task
}

func (p *taskPool) get() *task {
	t := p.free
	if t == nil {
		return &task{}
	}
	p.free = t.next
	t.next = nil
	return t
}

// put returns t to the pool, dropping its references: a pooled task
// pins no node, operation, buffer or tag.
func (p *taskPool) put(t *task) {
	*t = task{next: p.free}
	p.free = t
}

// task takes a record of kind k for this node from the cluster pool.
func (n *Node) task(k taskKind) *task {
	t := n.tasks.get()
	t.node, t.kind = n, k
	return t
}

// carry loads a send token into t.
func (t *task) carry(tok sendToken) {
	t.m, t.ref = tok.message, tok.tag
}

// token reads back the send token t carries.
func (t *task) token() sendToken {
	return sendToken{message: t.m, tag: t.ref}
}

// event is the host event record t carries.
func (t *task) event() Event {
	ev := Event{Kind: t.ev, FromNode: t.m.peer, Tag: t.ref, Group: int(t.m.group), Seq: t.m.seq, Value: t.m.value}
	if t.m.typ == msgHostBarrier {
		ev.Barrier = true
	}
	return ev
}

// Fire implements sim.Event. A step that only hands the request on to
// the next stage reuses the record; every other step copies it out and
// returns it to the pool before acting, since its handler schedules
// further tasks.
func (t *task) Fire() {
	n := t.node
	switch t.kind {
	case taskHostSend:
		t.kind = taskSendDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskHostTokenPost:
		t.kind = taskTokenDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskHostBarrierPost:
		t.kind = taskBarrierDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskSendDoorbell:
		t.kind = taskTokenTranslated
		n.NIC.exec(n.Prof.NIC.TokenTranslate, 0, t)
		return
	case taskTokenDoorbell:
		t.kind = taskTokenPosted
		n.NIC.exec(n.Prof.NIC.TokenPost, 0, t)
		return
	case taskEventLanded:
		n.Host.deliver(t)
		return
	}
	w := *t
	n.tasks.put(t)
	nic := n.NIC
	switch w.kind {
	case taskHostDeliver:
		n.Host.dispatch(w.event())
	case taskBarrierDoorbell:
		nic.onBarrierDoorbell(int(w.m.group), w.m.value)
	case taskFillLanded:
		nic.injectData(w.ref.(*sendBuf))
	case taskDataLanded:
		nic.sendAck(w.m)
		nic.postEvent(EvRecv, w.m, w.ref)
	case taskTokenTranslated:
		nic.Stats.TokensEnqueued++
		nic.enqueueToken(w.token())
		nic.kick()
	case taskTokenPosted:
		nic.recvTokens++
	case taskClaimed:
		nic.fillPacket(w.ref.(*sendBuf))
	case taskInject:
		nic.inject(w.ref.(*sendBuf))
	case taskRetransmit:
		nic.reinject(w.ref.(*sendBuf), w.m)
	case taskData:
		nic.checkData(w.m, w.ref)
	case taskDataMatched:
		t := n.task(taskDataLanded)
		t.m, t.ref = w.m, w.ref
		n.Bus.DMA(w.m.size, t)
	case taskAckSend:
		nic.net.Send(netsim.Packet{Src: n.ID, Dst: w.m.peer, Size: n.Prof.AckBytes,
			Kind: "ack", Group: int(w.m.group), Hdr: w.m.header()})
		nic.Stats.AcksSent++
	case taskAck:
		nic.ack(w.m)
	case taskEventPost:
		nic.Stats.EventsPosted++
		t := n.task(taskEventLanded)
		t.ev, t.m, t.ref = w.ev, w.m, w.ref
		n.Bus.DMA(n.Prof.EventBytes, t)
	case taskCollStart:
		nic.coll.begin(w.ref.(*collOp), w.m.value)
	case taskCollSend:
		nic.sendStatic(w.m, "barrier-coll")
		nic.Stats.CollSent++
	case taskCollResend:
		nic.sendStatic(w.m, "barrier-coll")
		nic.Stats.CollResent++
	case taskNackSend:
		nic.sendStatic(w.m, "barrier-nack")
		nic.Stats.NacksSent++
	case taskCollRecv:
		nic.coll.arrive(w.m)
	case taskNackRecv:
		nic.coll.serveNack(w.m)
	case taskCollComplete, taskDirectComplete:
		nic.postEvent(EvBarrierDone, w.m, nil)
	case taskDirectStart:
		nic.direct.begin(w.ref.(*directOp))
	case taskDirectRecv:
		nic.direct.arrive(w.m)
	default:
		panic("myrinet: unknown task kind")
	}
}
