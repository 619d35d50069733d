package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/sim"
)

// Toy shapes of the three workloads: the same code paths in a fraction
// of a second each.
func toyPaper() workload   { return paper8(5, 20) }
func toyTenants() workload { return tenants("tenants-toy", 64, 4, 5) }
func toyHier() workload    { return hier("hier-toy", 64, 1, 1) }

func toys() []workload { return []workload{toyPaper(), toyTenants(), toyHier()} }

func testOracle(t *testing.T) *oracle {
	t.Helper()
	or, err := loadOracle("../bench/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	return or
}

// pinToy records the toy hier shape's result, which pins.json does not
// hold, so its instances pass the oracle.
func pinToy(t *testing.T, or *oracle) {
	t.Helper()
	w := toyHier()
	in := w.instance(env{oracle: or})
	p, ok := in.pin.(hierPin)
	if !ok {
		t.Fatalf("hier instance recorded no pin (err %v)", in.err)
	}
	or.pins.Hier[w.shape] = p
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestDeclaration(t *testing.T) {
	d := loadDeclaration(t)
	var workloads []string
	for _, w := range d.Workloads {
		workloads = append(workloads, w.Name)
	}
	sort.Strings(workloads)
	if got := names(); !slices.Equal(got, workloads) {
		t.Errorf("registry has workloads %v, BENCHMARK.json declares %v", got, workloads)
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if better != "higher" && better != "lower" {
			t.Errorf("metric %q: better = %q", name, better)
		}
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
		if unit == "" {
			t.Errorf("metric %q has no unit", name)
		}
	}
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestEmittedMetrics runs every workload at toy size, untraced and
// traced, and checks that each run is correct and emits exactly the
// declared metrics with their declared units.
func TestEmittedMetrics(t *testing.T) {
	d := loadDeclaration(t)
	or := testOracle(t)
	pinToy(t, or)
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	for _, w := range toys() {
		t.Run(w.name, func(t *testing.T) {
			ins, err := measure(w, or, 3, false, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, endToEnd(ins), endToEndUnits)
			traced, err := runTraced(w, or, 3, 2*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, traced, perLayerUnits)

			var cpu float64
			for _, l := range layers {
				cpu += traced.Metrics[l+".cpu_frac"].Value
			}
			if math.Abs(cpu-1) > 1e-9 {
				t.Errorf("layer cpu_frac values sum to %v, want 1", cpu)
			}
			if traced.Metrics["sim.events"].Value == 0 {
				t.Error("traced run counted no simulated events")
			}
		})
	}
}

func checkReport(t *testing.T, rep report, units map[string]string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct %v, %d of %d rank-ops failed", rep.Correct, rep.Failed, rep.Attempted)
	}
	for name, unit := range units {
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %q not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %q unit %q, declared %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %q = %v", name, m.Value)
		}
	}
	for name := range rep.Metrics {
		if _, ok := units[name]; !ok {
			t.Errorf("metric %q emitted but not declared", name)
		}
	}
}

// TestPerturbedOracle checks that a wrong oracle value fails every
// rank-operation of the run, on each workload.
func TestPerturbedOracle(t *testing.T) {
	const seed = 5
	cases := []struct {
		w       workload
		perturb func(or *oracle, w workload)
	}{
		{toyPaper(), func(or *oracle, _ workload) {
			or.baseline["fig6/Host-DS/n8"] += 0.001
		}},
		{toyTenants(), func(or *oracle, w workload) {
			p := w.instance(env{seed: seed, oracle: or}).pin.(tenantPin)
			p.Sent++
			or.pins.Tenants[w.shape] = map[string]tenantPin{fmt.Sprint(seed): p}
		}},
		{toyHier(), func(or *oracle, w workload) {
			p := or.pins.Hier[w.shape]
			p.Windows++
			or.pins.Hier[w.shape] = p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.w.name, func(t *testing.T) {
			or := testOracle(t)
			pinToy(t, or)
			tc.perturb(or, tc.w)
			ins, err := measure(tc.w, or, seed, false, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			rep := endToEnd(ins)
			if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted < 1 {
				t.Errorf("correct %v, %d of %d rank-ops failed; want all failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			if got := rep.Metrics["completed_frac"].Value; got != 0 {
				t.Errorf("completed_frac = %v, want 0", got)
			}
		})
	}
}

// TestTenantPins checks the pinned tenant results of a seed the
// pins file holds, at full size.
func TestTenantPins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tenant instance")
	}
	or := testOracle(t)
	w, _ := lookup("tenants-2048-lossy")
	if _, ok := or.tenantPin(w.shape, 7); !ok {
		t.Fatalf("pins.json has no entry for %s seed 7", w.shape)
	}
	if in := w.instance(env{seed: 7, oracle: or}); in.err != nil || in.failed() != 0 {
		t.Errorf("seed 7: %d rank-ops failed: %v", in.failed(), in.err)
	}
}

// TestArrivals ties the derived per-collective arrival count to the
// baseline's measured packet count for the 8-node NIC barrier.
func TestArrivals(t *testing.T) {
	or := testOracle(t)
	want, err := or.value("packets/Collective/n8")
	if err != nil {
		t.Fatal(err)
	}
	if got := sends(barrier.All(barrier.Dissemination, 8, barrier.Options{})); float64(got) != want {
		t.Errorf("dissemination over 8 ranks sends %d notifications, baseline counts %v packets", got, want)
	}
}

// TestPaperSeeds checks that the seed moves every loop's rank placement
// while the oracle holds: the placements are symmetries of the testbeds.
func TestPaperSeeds(t *testing.T) {
	or := testOracle(t)
	w := toyPaper()
	seen := map[string]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		if in := w.instance(env{seed: seed, oracle: or}); in.err != nil {
			t.Errorf("seed %d: %v", seed, in.err)
		}
		rng := sim.NewRNG(seed)
		var key []int
		for _, l := range paperLoops() {
			p := l.place(rng)
			sorted := slices.Sorted(slices.Values(p))
			if !slices.Equal(sorted, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
				t.Fatalf("%s seed %d: placement %v is not a permutation of the 8 nodes", l.name, seed, p)
			}
			key = append(key, p...)
		}
		seen[fmt.Sprint(key)] = true
	}
	if len(seen) < 8 {
		t.Errorf("8 seeds gave %d distinct placements", len(seen))
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nicbarrier/internal/sim.(*Engine).Step":                                   "sim",
		"nicbarrier/internal/comm.(*Cluster).DriveAll.func2":                       "comm",
		"nicbarrier/internal/barrier.New":                                          "other",
		"runtime.mallocgc":                                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                             "runtime",
		"slices.pdqsortCmpFunc[go.shape.struct { nicbarrier/internal/shard.Msg }]": "other",
		"main.main": "other",
		"":          "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
