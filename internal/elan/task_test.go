package elan

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// TestPooledTasksHoldNothing checks, at every step of each scheme's run
// and after teardown, that the tasks waiting in the cluster's pool
// reference no node or chain: records are reused, so a stale reference
// would pin a disarmed chain for the life of the cluster.
func TestPooledTasksHoldNothing(t *testing.T) {
	for _, scheme := range []Scheme{SchemeChained, SchemeGsync, SchemeHW} {
		eng := sim.NewEngine()
		cl := NewCluster(eng, hwprofile.Elan3Cluster(), 8)
		s := NewSession(cl, identity(8), scheme, barrier.Dissemination, barrier.Options{})
		check := func() {
			t.Helper()
			for tk := cl.Nodes[0].tasks.free; tk != nil; tk = tk.next {
				if *tk != (task{next: tk.next}) {
					t.Fatalf("%v: pooled task holds %+v", scheme, *tk)
				}
			}
		}
		s.Launch(10)
		for eng.Step() {
			check()
		}
		if !s.Done() {
			t.Fatalf("%v: run incomplete", scheme)
		}
		if cl.Nodes[0].tasks.free == nil {
			t.Fatalf("%v: no task was recycled", scheme)
		}
		s.Close()
		eng.Run()
		check()
	}
}
