package myrinet

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// checkPooledClear fails when a task in the cluster's pool, or a free
// send buffer on any NIC, still references a node, operation, buffer,
// tag or timer: records are reused, so a stale reference would pin a
// torn-down group or a delivered message for the life of the cluster.
func checkPooledClear(t *testing.T, cl *Cluster) {
	t.Helper()
	for tk := cl.Nodes[0].tasks.free; tk != nil; tk = tk.next {
		if *tk != (task{next: tk.next}) {
			t.Fatalf("pooled task holds %+v", *tk)
		}
	}
	for _, node := range cl.Nodes {
		for b := node.NIC.freeBufs; b != nil; b = b.next {
			if *b != (sendBuf{nic: node.NIC, next: b.next}) {
				t.Fatalf("node %d: free send buffer holds %+v", node.ID, *b)
			}
		}
	}
}

// TestPooledRecordsHoldNothing mirrors the engine's
// TestFreeSlotsHoldNoCallback for the firmware's own pools: under loss,
// every scheme fires and recycles tasks, ACKs cancel retransmission
// timers and release send buffers, and NACK timers fire and get
// cancelled; at every step, what sits in a pool references nothing.
func TestPooledRecordsHoldNothing(t *testing.T) {
	for _, scheme := range barrierSchemes() {
		eng := sim.NewEngine()
		// ACKs are spared: a lost ACK leaves the p2p schemes
		// retransmitting a packet the receiver keeps dropping as out of
		// sequence.
		loss := &netsim.RandomLoss{Rate: 0.1, RNG: sim.NewRNG(7), Immune: map[string]bool{"ack": true}}
		cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 6, loss)
		s := NewSession(cl, identity(6), scheme, barrier.Dissemination, barrier.Options{})
		s.Launch(20)
		for steps := 0; eng.Step(); steps++ {
			if steps%64 == 0 {
				checkPooledClear(t, cl)
			}
		}
		if !s.Done() {
			t.Fatalf("%v: run incomplete", scheme)
		}
		checkPooledClear(t, cl)
		st := cl.Stats()
		if st.Retransmits+st.NacksSent == 0 {
			t.Fatalf("%v: no recovery traffic; the loss exercised nothing (%+v)", scheme, st)
		}
		s.Close()
		eng.Run()
		checkPooledClear(t, cl)
	}
}
