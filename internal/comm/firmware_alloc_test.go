package comm

import (
	"runtime"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/myrinet"
)

// TestPaperLoopsAllocateLittle runs each of the paper's four 8-node
// measurement loops through the communicator and bounds the heap
// allocations of a steady-state barrier. The NIC and host models
// dispatch typed work records from a per-cluster pool and carry protocol
// headers in fixed packet fields, so a barrier allocates nothing per
// firmware or host handler; what is left is per-run bookkeeping (the
// completion-time slices), amortized over the run.
func TestPaperLoopsAllocateLittle(t *testing.T) {
	const (
		nodes  = 8
		warmup = 100
		iters  = 1000
		// maxPerRankOp bounds heap allocations per rank per barrier.
		maxPerRankOp = 3.0
	)
	loops := []struct {
		name  string
		build func() *Cluster
		cfg   GroupConfig
	}{
		{"myrinet-xp-nic-collective", func() *Cluster { return xpComm(nodes) },
			GroupConfig{Kind: OpBarrier, Algorithm: barrier.Dissemination, MyrinetScheme: myrinet.SchemeCollective}},
		{"myrinet-xp-host-dissemination", func() *Cluster { return xpComm(nodes) },
			GroupConfig{Kind: OpBarrier, Algorithm: barrier.Dissemination, MyrinetScheme: myrinet.SchemeHost}},
		{"elan3-chained-rdma", func() *Cluster { return elanComm(nodes) },
			GroupConfig{Kind: OpBarrier, Algorithm: barrier.Dissemination, ElanScheme: elan.SchemeChained}},
		{"elan3-gsync", func() *Cluster { return elanComm(nodes) },
			GroupConfig{Kind: OpBarrier, Algorithm: barrier.GatherBroadcast, ElanScheme: elan.SchemeGsync}},
	}
	for _, l := range loops {
		t.Run(l.name, func(t *testing.T) {
			c := l.build()
			cfg := l.cfg
			cfg.Members = []int{3, 1, 0, 2, 7, 5, 6, 4}
			g, err := c.NewGroup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(warmup)
			g.Reset()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			done := g.Run(iters)
			runtime.ReadMemStats(&after)
			if len(done) != iters {
				t.Fatalf("%d of %d barriers completed", len(done), iters)
			}
			perRankOp := float64(after.Mallocs-before.Mallocs) / float64(iters*nodes)
			t.Logf("%.4f allocations per rank-op", perRankOp)
			if perRankOp > maxPerRankOp {
				t.Errorf("%.2f allocations per rank-op, want at most %.0f", perRankOp, maxPerRankOp)
			}
		})
	}
}
