package harness

import (
	"fmt"
	"math"
	"strings"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/model"
	"nicbarrier/internal/myrinet"
)

// Row is one paper-vs-measured comparison. Indentation in Metric
// (leading spaces) means "derived from the row above" — it both groups
// the rendered table visually and nests the exported metric name under
// the parent row in Table.ToPoints. Rows that are independent absolute
// measurements must not be indented, or their report metric would claim
// a false parent.
type Row struct {
	Metric   string
	Unit     string
	Paper    float64
	Measured float64
}

// Delta reports the relative deviation from the paper's value.
func (r Row) Delta() float64 {
	if r.Paper == 0 {
		return math.NaN()
	}
	return (r.Measured - r.Paper) / r.Paper
}

// Table is a rendered comparison table (the Section 8 headline numbers).
type Table struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Render produces an aligned text table with deviations.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-52s %8s %9s %7s\n", "metric", "paper", "measured", "delta")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-52s %6.2f%s %7.2f%s %+6.1f%%\n",
			r.Metric, r.Paper, r.Unit, r.Measured, r.Unit, r.Delta()*100)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Summary regenerates every headline number from the paper's Section 8
// prose and abstract, next to this reproduction's measurements.
func Summary(cfg Config) Table {
	xp := hwprofile.LANaiXPCluster()
	l9 := hwprofile.LANai91Cluster()

	quadNIC := MeasureBarrier(cfg, ElanPoint(8, 8, elan.SchemeChained, barrier.Dissemination))
	quadGsync := MeasureBarrier(cfg, ElanPoint(8, 8, elan.SchemeGsync, barrier.GatherBroadcast))
	quadHW := MeasureBarrier(cfg, ElanPoint(8, 8, elan.SchemeHW, barrier.Dissemination))

	xpNIC := MeasureBarrier(cfg, MyrinetPoint(xp, 8, 8, myrinet.SchemeCollective, barrier.Dissemination))
	xpHost := MeasureBarrier(cfg, MyrinetPoint(xp, 8, 8, myrinet.SchemeHost, barrier.Dissemination))

	l9NIC := MeasureBarrier(cfg, MyrinetPoint(l9, 16, 16, myrinet.SchemeCollective, barrier.Dissemination))
	l9Host := MeasureBarrier(cfg, MyrinetPoint(l9, 16, 16, myrinet.SchemeHost, barrier.Dissemination))

	// Fit the scalability models from measured sweeps and extrapolate.
	fitOver := func(measure Measure) model.Model {
		ns := powersOfTwo(2, 1024)
		xs := make([]int, len(ns))
		ys := make([]float64, len(ns))
		for i, n := range ns {
			xs[i], ys[i] = n, measure(n)
		}
		m, err := model.Fit(xs, ys)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		return m
	}
	quadModel := fitOver(func(n int) float64 {
		return MeasureBarrier(cfg, ElanPoint(n, n, elan.SchemeChained, barrier.Dissemination))
	})
	myriModel := fitOver(func(n int) float64 {
		return MeasureBarrier(cfg, MyrinetPoint(xp, n, n, myrinet.SchemeCollective, barrier.Dissemination))
	})

	return Table{
		ID:    "summary",
		Title: "Section 8 headline numbers, paper vs this reproduction",
		Rows: []Row{
			{"Quadrics NIC-based barrier, 8 nodes", "us", 5.60, quadNIC},
			{"  improvement over elan_gsync tree barrier", "x", 2.48, quadGsync / quadNIC},
			// Not indented: an independent absolute measurement of a
			// different scheme, not a quantity derived from the row above
			// (indentation nests metric names in ToPoints).
			{"elan_hgsync hardware barrier, 8 nodes", "us", 4.20, quadHW},
			{"Myrinet LANai-XP NIC-based barrier, 8 nodes", "us", 14.20, xpNIC},
			{"  improvement over host-based barrier", "x", 2.64, xpHost / xpNIC},
			{"Myrinet LANai 9.1 NIC-based barrier, 16 nodes", "us", 25.72, l9NIC},
			{"  improvement over host-based barrier", "x", 3.38, l9Host / l9NIC},
			{"Model: Quadrics Ttrig", "us", 2.32, quadModel.Ttrig},
			{"Model: Quadrics barrier at 1024 nodes", "us", 22.13, quadModel.Predict(1024)},
			{"Model: Myrinet Ttrig", "us", 3.50, myriModel.Ttrig},
			{"Model: Myrinet barrier at 1024 nodes", "us", 38.94, myriModel.Predict(1024)},
		},
		Notes: []string{
			"measured on the simulated substrates described in DESIGN.md",
			"fitted models: quadrics " + quadModel.String() + "; myrinet " + myriModel.String(),
		},
	}
}
