package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
)

// oracle holds the simulated results every run is checked against: the
// committed baseline (read at run time, never copied) and the values
// pinned for the benchmark's own workload shapes.
type oracle struct {
	baseline map[string]float64
	pins     pins
}

// pins are simulated results the committed baseline does not cover,
// recorded from this simulator: per-seed makespan and packet counts of
// the tenant workload, and the hierarchical barrier's latency and
// window count. Keys name the workload shape, so a toy shape used by
// the tests cannot be checked against a full-size pin.
type pins struct {
	Tenants map[string]map[string]tenantPin `json:"tenants"`
	Hier    map[string]hierPin              `json:"hier"`
}

type tenantPin struct {
	MakespanUS float64 `json:"makespan_us"`
	Sent       uint64  `json:"sent"`
	Dropped    uint64  `json:"dropped"`
}

type hierPin struct {
	LatencyUS float64 `json:"latency_us"`
	Windows   uint64  `json:"windows"`
	Tokens    uint64  `json:"tokens"`
}

var errNoPin = errors.New("no pinned result")

//go:embed pins.json
var pinsJSON []byte

func loadOracle(baselinePath string) (*oracle, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var doc struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", baselinePath, err)
	}
	or := &oracle{baseline: map[string]float64{}}
	for _, m := range doc.Metrics {
		or.baseline[m.Name] = m.Value
	}
	if err := json.Unmarshal(pinsJSON, &or.pins); err != nil {
		return nil, fmt.Errorf("oracle: pins.json: %w", err)
	}
	return or, nil
}

// value returns a baseline metric, failing when the baseline lacks it.
func (or *oracle) value(name string) (float64, error) {
	v, ok := or.baseline[name]
	if !ok {
		return 0, fmt.Errorf("oracle: bench/baseline.json has no metric %q", name)
	}
	return v, nil
}

func (or *oracle) tenantPin(shape string, seed uint64) (tenantPin, bool) {
	p, ok := or.pins.Tenants[shape][strconv.FormatUint(seed, 10)]
	return p, ok
}

// sameUS compares simulated microsecond values. Simulated time is
// integral nanoseconds, so the only slack needed is float rounding of
// means computed over different iteration counts.
func sameUS(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
