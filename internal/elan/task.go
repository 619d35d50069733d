package elan

import (
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
)

// Message types carried in netsim.Header.Type.
const (
	msgRDMA      uint8 = iota + 1 // zero-byte RDMA consumed by a NIC-resident chain
	msgRDMAHost                   // zero-byte RDMA surfaced to the host (gsync)
	msgHW                         // broadcast phase of the hardware barrier
	msgHeartbeat                  // liveness probe
)

// taskKind names one step of a host, bus or card handler chain.
type taskKind uint8

const (
	// Host CPU.
	taskHostTrigger taskKind = iota // chain doorbell built: ring it
	taskHostRemote                  // gsync RDMA descriptor built: ring the doorbell
	taskHostHW                      // hardware-barrier entry built: ring the doorbell
	taskHostDeliver                 // event polled (or host work done): hand it on
	// PCI bus.
	taskTriggerDoorbell // chain doorbell landed on the card
	taskRemoteDoorbell  // gsync doorbell landed
	taskHWDoorbell      // hardware-barrier doorbell landed
	// Elan card.
	taskRDMASend    // chained RDMA descriptor processed: send it
	taskRemoteSend  // host-initiated RDMA descriptor processed: send it
	taskRDMAFired   // remote event fired by an arrived RDMA
	taskHostEvent   // host-level remote event written to host memory
	taskChainDone   // last descriptor done: raise the local host event
	taskHWCompleted // hardware-barrier round observed by this card
)

// task is one pending host, bus or card handler, the typed form of a
// callback: it is scheduled as its own sim.Event and dispatches on kind
// when it fires. Tasks come from the cluster's taskPool and return to
// it when their chain ends.
type task struct {
	next *task // pool free-list link
	node *Node
	op   *chainOp // the chain a descriptor or completion belongs to
	kind taskKind
	ev   EventKind // taskHostDeliver: the host event
	peer int       // destination node of a send, source node of an arrival
	// The operation words: group, sequence (hardware-barrier round) and
	// sending rank.
	group core.GroupID
	seq   int
	rank  int
}

// taskPool is a cluster's free list of tasks, shared by all its nodes.
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
// pins no node or chain.
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

// event is the host event t carries.
func (t *task) event() Event {
	return Event{Kind: t.ev, Group: int(t.group), Seq: t.seq, FromNode: t.peer}
}

// Fire implements sim.Event. A step that only hands the request on to
// the next stage reuses the record; every other step copies it out and
// returns it to the pool before acting.
func (t *task) Fire() {
	n := t.node
	p := n.Prof.NIC
	switch t.kind {
	case taskHostTrigger:
		t.kind = taskTriggerDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskHostRemote:
		t.kind = taskRemoteDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskHostHW:
		t.kind = taskHWDoorbell
		n.Bus.PIOWrite(t)
		return
	case taskRemoteDoorbell:
		t.kind = taskRemoteSend
		n.NIC.exec(p.DMADescCycles, p.SendFixed, t)
		return
	case taskHostEvent:
		t.ev = EvRemote
		n.Host.deliver(t)
		return
	}
	w := *t
	n.tasks.put(t)
	nic := n.NIC
	switch w.kind {
	case taskHostDeliver:
		n.Host.dispatch(w.event())
	case taskTriggerDoorbell:
		nic.startChain(w.group)
	case taskHWDoorbell:
		n.hwPost()
	case taskRDMASend:
		if w.op.frozen {
			return // descriptor invalidated by an abort while queued
		}
		nic.sendRDMA(w, msgRDMA, "rdma-event")
	case taskRemoteSend:
		nic.sendRDMA(w, msgRDMAHost, "rdma-host")
	case taskRDMAFired:
		nic.fired(w)
	case taskChainDone:
		if w.op.frozen {
			return // completion overtaken by an abort
		}
		d := n.task(taskHostDeliver)
		d.ev, d.group, d.seq = EvBarrierDone, w.group, w.seq
		n.Host.deliver(d)
	case taskHWCompleted:
		nic.Stats.HWBarriers++
		d := n.task(taskHostDeliver)
		d.ev, d.seq = EvHWBarrier, w.seq
		n.Host.deliver(d)
	default:
		panic("elan: unknown task kind")
	}
}

// sendRDMA injects the zero-byte RDMA w describes.
func (n *NIC) sendRDMA(w task, typ uint8, kind string) {
	n.net.Send(netsim.Packet{
		Src:   n.node.ID,
		Dst:   w.peer,
		Size:  n.node.Prof.BarrierBytes,
		Kind:  kind,
		Group: int(w.group),
		Hdr:   netsim.Header{Type: typ, Seq: int32(w.seq), Rank: int32(w.rank)},
	})
	n.Stats.RDMAsSent++
}
