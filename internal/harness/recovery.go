package harness

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// The crash-recovery experiment family measures what fail-stop survival
// costs: how long a deadline-armed collective stream takes to detect a
// permanently crashed member, evict it, and finish on the survivors —
// against the same stream on a healthy cluster, and as a function of
// the operation deadline that bounds detection.

// registerRecoveryScenarios adds the crash-recovery family to the
// scenario registry; called from the experiments init.
func registerRecoveryScenarios() {
	RegisterScenario(Scenario{ID: "crash-recovery",
		Title: "Makespan of a deadline-armed barrier stream, healthy vs one crashed member", Figure: CrashRecovery})
	RegisterScenario(Scenario{ID: "recovery-deadline",
		Title: "Crash-recovery makespan vs operation deadline (detection is deadline-bound)", Figure: RecoveryDeadlineSweep})
}

// recoveryOps is the stream length every recovery data point runs: long
// enough that the post-eviction steady state dominates neither too
// little nor too much next to the one-time detection cost.
const recoveryOps = 10

// measureRecoveryMakespan runs one data point: an n-node barrier group
// with recovery armed runs recoveryOps operations, optionally with node
// n/2 permanently crashed, and reports the virtual-time makespan in
// microseconds. Node IDs are identity-mapped (no permutation) because
// the crash rule names a physical node.
func measureRecoveryMakespan(cfg Config, prof hwprofile.Profile, n int, deadlineUS float64, crash bool, salt uint64) float64 {
	var plan netsim.Impairment
	if crash {
		plan = fault.NewPlan(faultSeed(cfg, salt), fault.Crash(n/2, fault.Window{}))
	}
	c := comm.NewCluster(sim.NewEngine(), prof, n, nil, plan)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	g, err := c.NewGroup(comm.GroupConfig{
		Members:       members,
		Kind:          comm.OpBarrier,
		Algorithm:     barrier.Dissemination,
		MyrinetScheme: myrinet.SchemeCollective,
		ElanScheme:    elan.SchemeChained,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: recovery point: %v", err))
	}
	if err := g.SetRecovery(comm.RecoveryConfig{
		OpDeadline: sim.Micros(deadlineUS),
		MaxRetries: 4,
	}); err != nil {
		panic(fmt.Sprintf("harness: recovery point: %v", err))
	}
	done, err := g.RunDeadline(recoveryOps)
	if err != nil {
		panic(fmt.Sprintf("harness: recovery point (%d nodes, crash=%v): %v", n, crash, err))
	}
	return done[len(done)-1].Micros()
}

// CrashRecovery compares the makespan of a deadline-armed barrier
// stream on a healthy cluster against the same stream with one member
// permanently crashed, on both interconnects. The gap between the
// curves is the survival bill: one deadline expiry to detect, one
// eviction/rebuild, and the retried operations on the survivors.
func CrashRecovery(cfg Config) Figure {
	ns := []int{8, 16, 32}
	const deadlineUS = 1000.0
	// tag is the backend's salt bit: 0 on Myrinet, 1 on Quadrics.
	point := func(prof hwprofile.Profile, tag uint64, crash bool) Measure {
		return func(n int) float64 {
			salt := 0x4ec0<<16 | uint64(n)<<2 | tag
			if crash {
				salt |= 2
			}
			return measureRecoveryMakespan(cfg, prof, n, deadlineUS, crash, salt)
		}
	}
	return Figure{
		ID:     "crash-recovery",
		Title:  fmt.Sprintf("Deadline-armed %d-barrier stream: healthy vs one crashed member (deadline %.0fus)", recoveryOps, deadlineUS),
		XLabel: "Cluster size (nodes)",
		YLabel: "Stream makespan",
		Series: []Series{
			sweep(cfg, "Myrinet-clean", ns, point(hwprofile.LANaiXPCluster(), 0, false)),
			sweep(cfg, "Myrinet-crash", ns, point(hwprofile.LANaiXPCluster(), 0, true)),
			sweep(cfg, "Quadrics-clean", ns, point(hwprofile.Elan3Cluster(), 1, false)),
			sweep(cfg, "Quadrics-crash", ns, point(hwprofile.Elan3Cluster(), 1, true)),
		},
		Notes: []string{
			"a permanent fail-stop crash would hang either backend forever without the deadline;",
			"with it, the stream pays one detection (deadline expiry + heartbeat suspicion),",
			"one eviction/rebuild, and finishes on the survivors — bounded virtual time",
		},
	}
}

// RecoveryDeadlineSweep sweeps the operation deadline with one member
// permanently crashed at a fixed cluster size: detection cannot finish
// before the deadline expires, so the makespan is deadline-bound — the
// knob trades failure-free overhead headroom against recovery latency.
func RecoveryDeadlineSweep(cfg Config) Figure {
	const size = 16
	deadlines := []int{500, 1000, 2000, 4000}
	point := func(prof hwprofile.Profile, tag uint64) Measure {
		return func(us int) float64 {
			salt := 0x4ec1<<16 | uint64(us)<<1 | tag
			return measureRecoveryMakespan(cfg, prof, size, float64(us), true, salt)
		}
	}
	return Figure{
		ID:     "recovery-deadline",
		Title:  fmt.Sprintf("Crash-recovery makespan vs op deadline, %d nodes, one crashed member", size),
		XLabel: "Operation deadline (us)",
		YLabel: "Stream makespan",
		Series: []Series{
			sweep(cfg, "Myrinet", deadlines, point(hwprofile.LANaiXPCluster(), 0)),
			sweep(cfg, "Quadrics", deadlines, point(hwprofile.Elan3Cluster(), 1)),
		},
		Notes: []string{
			"the first operation cannot fail before its deadline expires, so recovery",
			"latency scales with the deadline: tighter deadlines detect faster but leave",
			"less headroom above the healthy-path op time",
		},
	}
}
