package harness

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/model"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// BarrierPoint is one barrier data point: an N-rank group running
// Group's scheme and algorithm on a Size-node cluster built from Prof,
// its network impaired by Faults (nil: none). Salt seeds the rank
// permutation (each call site keeps its own); Scope names the trace
// scope.
type BarrierPoint struct {
	Prof    hwprofile.Profile
	Size, N int
	Group   comm.GroupConfig
	Salt    uint64
	Faults  netsim.Impairment
	Scope   string
}

// MyrinetPoint describes a Myrinet barrier point.
func MyrinetPoint(prof hwprofile.MyrinetProfile, size, n int, scheme myrinet.Scheme, alg barrier.Algorithm) BarrierPoint {
	return BarrierPoint{Prof: prof, Size: size, N: n,
		Group: comm.GroupConfig{Algorithm: alg, MyrinetScheme: scheme},
		Salt:  uint64(scheme)<<8 | uint64(alg),
		Scope: fmt.Sprintf("myrinet %dn/%d %v %v", size, n, scheme, alg)}
}

// ElanPoint describes a Quadrics barrier point.
func ElanPoint(size, n int, scheme elan.Scheme, alg barrier.Algorithm) BarrierPoint {
	return BarrierPoint{Prof: hwprofile.Elan3Cluster(), Size: size, N: n,
		Group: comm.GroupConfig{Algorithm: alg, ElanScheme: scheme},
		Salt:  0x9000 | uint64(scheme)<<8 | uint64(alg),
		Scope: fmt.Sprintf("elan %dn/%d %v %v", size, n, scheme, alg)}
}

// build makes the point's cluster and installs its group, tracing both
// when cfg.Trace is set.
func (p BarrierPoint) build(cfg Config) (*comm.Cluster, *comm.Group) {
	c := comm.NewCluster(sim.NewEngine(), p.Prof, p.Size, nil, p.Faults)
	if cfg.Trace != nil {
		sc := cfg.Trace.NewScope(p.Scope)
		c.Eng.SetObserver(sc)
		c.SetTracer(sc)
	}
	gc := p.Group
	gc.Members = permutedIDs(cfg, p.Size, p.N, p.Salt)
	g, err := c.NewGroup(gc)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", p.Scope, err))
	}
	return c, g
}

// MeasureBarrier runs the point's warmup+iters consecutive barriers and
// reports the mean latency of the measured ones in microseconds.
func MeasureBarrier(cfg Config, p BarrierPoint) float64 {
	_, g := p.build(cfg)
	return g.MeanLatency(cfg.itersFor(p.N)).Micros()
}

func rangeInts(from, to int) []int {
	var out []int
	for n := from; n <= to; n++ {
		out = append(out, n)
	}
	return out
}

func powersOfTwo(from, to int) []int {
	var out []int
	for n := from; n <= to; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Fig5 reproduces Fig. 5: NIC-based and host-based barriers, both
// algorithms, on the 16-node 700 MHz cluster with LANai 9.1 cards.
func Fig5(cfg Config) Figure {
	prof := hwprofile.LANai91Cluster()
	const size = 16
	ns := rangeInts(2, size)
	mk := func(scheme myrinet.Scheme, alg barrier.Algorithm) Measure {
		return func(n int) float64 {
			return MeasureBarrier(cfg, MyrinetPoint(prof, size, n, scheme, alg))
		}
	}
	return Figure{
		ID:     "fig5",
		Title:  "NIC-based vs host-based barrier, Myrinet LANai 9.1, 16-node 700MHz cluster",
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "NIC-DS", ns, mk(myrinet.SchemeCollective, barrier.Dissemination)),
			sweep(cfg, "NIC-PE", ns, mk(myrinet.SchemeCollective, barrier.PairwiseExchange)),
			sweep(cfg, "Host-DS", ns, mk(myrinet.SchemeHost, barrier.Dissemination)),
			sweep(cfg, "Host-PE", ns, mk(myrinet.SchemeHost, barrier.PairwiseExchange)),
		},
		Notes: []string{"paper: 25.72us NIC-based at 16 nodes, 3.38x over host-based"},
	}
}

// Fig6 reproduces Fig. 6: the same comparison on the 8-node 2.4 GHz Xeon
// cluster with LANai-XP cards.
func Fig6(cfg Config) Figure {
	prof := hwprofile.LANaiXPCluster()
	const size = 8
	ns := rangeInts(2, size)
	mk := func(scheme myrinet.Scheme, alg barrier.Algorithm) Measure {
		return func(n int) float64 {
			return MeasureBarrier(cfg, MyrinetPoint(prof, size, n, scheme, alg))
		}
	}
	return Figure{
		ID:     "fig6",
		Title:  "NIC-based vs host-based barrier, Myrinet LANai-XP, 8-node 2.4GHz cluster",
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "NIC-DS", ns, mk(myrinet.SchemeCollective, barrier.Dissemination)),
			sweep(cfg, "NIC-PE", ns, mk(myrinet.SchemeCollective, barrier.PairwiseExchange)),
			sweep(cfg, "Host-DS", ns, mk(myrinet.SchemeHost, barrier.Dissemination)),
			sweep(cfg, "Host-PE", ns, mk(myrinet.SchemeHost, barrier.PairwiseExchange)),
		},
		Notes: []string{"paper: 14.20us NIC-based at 8 nodes, 2.64x over host-based"},
	}
}

// Fig7 reproduces Fig. 7: barrier implementations over Quadrics/Elan3 on
// the 8-node 700 MHz cluster.
func Fig7(cfg Config) Figure {
	const size = 8
	ns := rangeInts(2, size)
	mkChained := func(alg barrier.Algorithm) Measure {
		return func(n int) float64 {
			return MeasureBarrier(cfg, ElanPoint(size, n, elan.SchemeChained, alg))
		}
	}
	return Figure{
		ID:     "fig7",
		Title:  "Barrier implementations over Quadrics/Elan3, 8-node 700MHz cluster",
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "NIC-Barrier-DS", ns, mkChained(barrier.Dissemination)),
			sweep(cfg, "NIC-Barrier-PE", ns, mkChained(barrier.PairwiseExchange)),
			sweep(cfg, "Elan-Barrier", ns, func(n int) float64 {
				return MeasureBarrier(cfg, ElanPoint(size, n, elan.SchemeGsync, barrier.GatherBroadcast))
			}),
			sweep(cfg, "Elan-HW-Barrier", ns, func(n int) float64 {
				return MeasureBarrier(cfg, ElanPoint(size, n, elan.SchemeHW, barrier.Dissemination))
			}),
		},
		Notes: []string{
			"paper: 5.60us NIC-based at 8 nodes, 2.48x over elan_gsync; elan_hgsync 4.20us",
			"divergence: PE is not faster than DS at non-power-of-two sizes here",
		},
	}
}

// fig8 builds one panel of Fig. 8: measured dissemination NIC barrier
// latency vs the analytical model, 2..1024 nodes.
func fig8(cfg Config, id, title string, paper model.Model, measure Measure) Figure {
	ns := powersOfTwo(2, 1024)
	measured := sweep(cfg, "Measured", ns, measure)

	xs := make([]int, len(measured.Points))
	ys := make([]float64, len(measured.Points))
	for i, p := range measured.Points {
		xs[i], ys[i] = p.N, p.LatencyUS
	}
	fitted, err := model.Fit(xs, ys)
	if err != nil {
		panic(fmt.Sprintf("harness: model fit failed: %v", err))
	}
	modelSeries := Series{Name: "Model"}
	paperSeries := Series{Name: "Paper-Model"}
	for _, n := range ns {
		modelSeries.Points = append(modelSeries.Points, Point{N: n, LatencyUS: fitted.Predict(n)})
		paperSeries.Points = append(paperSeries.Points, Point{N: n, LatencyUS: paper.Predict(n)})
	}
	// Fit quality over the extrapolation range (n >= 8); like the
	// paper's model, the straight line misses at n=2 by construction
	// (their model predicts 1.25us there against ~2us measured).
	var bigXs []int
	var bigYs []float64
	for i, n := range xs {
		if n >= 8 {
			bigXs = append(bigXs, n)
			bigYs = append(bigYs, ys[i])
		}
	}
	return Figure{
		ID:     id,
		Title:  title,
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{modelSeries, measured, paperSeries},
		Notes: []string{
			"fitted: " + fitted.String(),
			"paper:  " + paper.String(),
			fmt.Sprintf("fit max relative error vs measured (n>=8): %.1f%%",
				fitted.MaxRelativeError(bigXs, bigYs)*100),
		},
	}
}

// Fig8a reproduces Fig. 8(a): Quadrics barrier scalability model.
func Fig8a(cfg Config) Figure {
	return fig8(cfg, "fig8a", "Barrier scalability over 700MHz Quadrics-Elan3 cluster",
		model.PaperQuadrics(), func(n int) float64 {
			return MeasureBarrier(cfg, ElanPoint(n, n, elan.SchemeChained, barrier.Dissemination))
		})
}

// Fig8b reproduces Fig. 8(b): Myrinet barrier scalability model.
func Fig8b(cfg Config) Figure {
	prof := hwprofile.LANaiXPCluster()
	return fig8(cfg, "fig8b", "Barrier scalability over 2.4GHz Myrinet LANai-XP cluster",
		model.PaperMyrinetXP(), func(n int) float64 {
			return MeasureBarrier(cfg, MyrinetPoint(prof, n, n, myrinet.SchemeCollective, barrier.Dissemination))
		})
}

// Ablation reproduces the paper's Section 8.1 argument against the
// direct scheme: collective-protocol vs direct vs host-based barriers on
// both Myrinet clusters.
func Ablation(cfg Config) Figure {
	xp := hwprofile.LANaiXPCluster()
	l9 := hwprofile.LANai91Cluster()
	nsXP := rangeInts(2, 8)
	ns91 := rangeInts(2, 16)
	mk := func(prof hwprofile.MyrinetProfile, size int, scheme myrinet.Scheme) Measure {
		return func(n int) float64 {
			return MeasureBarrier(cfg, MyrinetPoint(prof, size, n, scheme, barrier.Dissemination))
		}
	}
	return Figure{
		ID:     "ablation",
		Title:  "Collective protocol vs direct scheme vs host-based (dissemination)",
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "XP-Collective", nsXP, mk(xp, 8, myrinet.SchemeCollective)),
			sweep(cfg, "XP-Direct", nsXP, mk(xp, 8, myrinet.SchemeDirect)),
			sweep(cfg, "XP-Host", nsXP, mk(xp, 8, myrinet.SchemeHost)),
			sweep(cfg, "9.1-Collective", ns91, mk(l9, 16, myrinet.SchemeCollective)),
			sweep(cfg, "9.1-Direct", ns91, mk(l9, 16, myrinet.SchemeDirect)),
			sweep(cfg, "9.1-Host", ns91, mk(l9, 16, myrinet.SchemeHost)),
		},
		Notes: []string{
			"paper (on older LANai 7.2/GM-1.2.3 hardware): direct scheme improved 1.86x over host;",
			"the collective protocol improves 2.64x (XP) and 3.38x (9.1) — the gap is the paper's thesis",
		},
	}
}

// Packets reproduces the Section 6.3 packet accounting: wire packets per
// barrier for the collective protocol (no ACKs) vs the direct scheme
// (data + ACK per message).
func Packets(cfg Config) Figure {
	prof := hwprofile.LANaiXPCluster()
	const size = 16
	count := func(scheme myrinet.Scheme) Measure {
		return func(n int) float64 {
			p := MyrinetPoint(prof, size, n, scheme, barrier.Dissemination)
			p.Salt = 0x7000 | uint64(scheme)
			c, g := p.build(cfg)
			const iters = 10
			g.Run(iters)
			c.Eng.Run() // drain trailing ACKs
			return float64(c.WireStats().Sent) / iters
		}
	}
	ns := []int{2, 4, 8, 16}
	return Figure{
		ID:     "packets",
		Title:  "Wire packets per barrier: receiver-driven retransmission halves traffic",
		XLabel: "Number of Nodes",
		YLabel: "Packets/barrier",
		Unit:   "pkts",
		Series: []Series{
			sweep(cfg, "Collective", ns, count(myrinet.SchemeCollective)),
			sweep(cfg, "Direct(ACKed)", ns, count(myrinet.SchemeDirect)),
		},
		Notes: []string{"paper Section 6.3: eliminating ACKs reduces the number of packets by half"},
	}
}

// Skew quantifies the paper's synchronization argument against the
// hardware barrier: one barrier is entered with a linear per-rank stagger
// (rank r enters at r/(n-1) of the skew span); the reported latency is
// from the last entry to global completion. The NIC-based barrier buffers
// early notifications in its bit vector and stays flat; the hardware
// test-and-set retries once the skew exceeds its sync window.
func Skew(cfg Config) Figure {
	const size = 8
	spansUS := []int{0, 10, 20, 40, 80, 160, 320}
	run := func(scheme elan.Scheme) Measure {
		return func(spanUS int) float64 {
			p := ElanPoint(size, size, scheme, barrier.Dissemination)
			p.Salt = 0x5e00 | uint64(scheme)
			_, g := p.build(cfg)
			skew := make([]sim.Duration, size)
			for r := range skew {
				skew[r] = sim.Micros(float64(spanUS) * float64(r) / float64(size-1))
			}
			return g.RunSkewed(skew).Micros()
		}
	}
	return Figure{
		ID:     "skew",
		Title:  "Barrier cost after the last process arrives, under entry skew (Quadrics, 8 nodes)",
		XLabel: "Entry skew span (us)",
		YLabel: "Latency after last entry",
		Series: []Series{
			sweep(cfg, "NIC-Barrier-DS", spansUS, run(elan.SchemeChained)),
			sweep(cfg, "Elan-HW-Barrier", spansUS, run(elan.SchemeHW)),
			sweep(cfg, "Elan-Barrier", spansUS, run(elan.SchemeGsync)),
		},
		Notes: []string{
			"paper Section 8.2: the hardware barrier 'requires that the involving processes be",
			"well synchronized... hardly the case for parallel programs over large size clusters'",
		},
	}
}

// init registers the paper's experiments as named scenarios, in the
// order the evaluation presents them. Additional workloads register
// themselves the same way (see faults.go) and automatically appear in
// the CLI listing and in benchgate reports.
func init() {
	RegisterScenario(Scenario{ID: "fig5",
		Title: "Fig. 5: NIC vs host barrier, Myrinet LANai 9.1, 16 nodes", Figure: Fig5})
	RegisterScenario(Scenario{ID: "fig6",
		Title: "Fig. 6: NIC vs host barrier, Myrinet LANai-XP, 8 nodes", Figure: Fig6})
	RegisterScenario(Scenario{ID: "fig7",
		Title: "Fig. 7: barrier implementations over Quadrics/Elan3", Figure: Fig7})
	RegisterScenario(Scenario{ID: "fig8a",
		Title: "Fig. 8(a): Quadrics barrier scalability model to 1024 nodes", Figure: Fig8a})
	RegisterScenario(Scenario{ID: "fig8b",
		Title: "Fig. 8(b): Myrinet barrier scalability model to 1024 nodes", Figure: Fig8b})
	RegisterScenario(Scenario{ID: "summary",
		Title: "Section 8 headline numbers, paper vs this reproduction", Table: Summary})
	RegisterScenario(Scenario{ID: "ablation",
		Title: "Ablation: collective protocol vs direct scheme vs host-based", Figure: Ablation})
	RegisterScenario(Scenario{ID: "packets",
		Title: "Section 6.3 packet accounting: receiver-driven retransmission halves traffic", Figure: Packets})
	RegisterScenario(Scenario{ID: "skew",
		Title: "Section 8.2: barrier cost under process entry skew", Figure: Skew})
	registerFaultScenarios()
	registerRecoveryScenarios()
	registerTenantScenarios()
	registerLifecycleScenarios()
	registerPartitionScenarios()
}
