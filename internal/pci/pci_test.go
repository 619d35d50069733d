package pci

import (
	"testing"

	"nicbarrier/internal/sim"
)

// fire adapts a test callback to sim.Event.
type fire func()

func (f fire) Fire() { f() }

func testBus(eng *sim.Engine) *Bus {
	return New(eng, Params{
		PIOWrite:      sim.Nanos(400),
		DMASetup:      sim.Nanos(600),
		BandwidthMBps: 528, // 66 MHz * 64 bit PCI
	})
}

func TestPIOWriteLatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.PIOWrite(fire(func() { done = eng.Now() }))
	eng.Run()
	if done != 400 {
		t.Fatalf("PIO completion at %v, want 400ns", done)
	}
}

func TestDMALatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(528, fire(func() { done = eng.Now() })) // 528B at 528MB/s = 1000ns
	eng.Run()
	if done != 1600 {
		t.Fatalf("DMA completion at %v, want 1600ns", done)
	}
}

func TestZeroByteDMA(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(0, fire(func() { done = eng.Now() }))
	eng.Run()
	if done != 600 {
		t.Fatalf("zero-byte DMA completion at %v, want setup-only 600ns", done)
	}
}

func TestBusArbitrationSerializes(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var order []sim.Time
	// Issue a DMA and two PIOs back-to-back: they must serialize.
	bus.DMA(528, fire(func() { order = append(order, eng.Now()) })) // 600+1000
	bus.PIOWrite(fire(func() { order = append(order, eng.Now()) })) // +400
	bus.PIOWrite(fire(func() { order = append(order, eng.Now()) })) // +400
	eng.Run()
	want := []sim.Time{1600, 2000, 2400}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("completions %v, want %v", order, want)
		}
	}
}

func TestBusIdleGapDoesNotCharge(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var second sim.Time
	bus.PIOWrite(fire(func() {}))
	eng.After(10_000, func() {
		bus.PIOWrite(fire(func() { second = eng.Now() }))
	})
	eng.Run()
	if second != 10_400 {
		t.Fatalf("post-idle PIO completed at %v, want 10400ns", second)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	bus.PIOWrite(fire(func() {}))
	bus.DMA(100, fire(func() {}))
	bus.DMA(200, fire(func() {}))
	eng.Run()
	c := bus.Counters()
	if c.PIOWrites != 1 || c.DMAs != 2 || c.DMABytes != 300 {
		t.Fatalf("counters %+v", c)
	}
	if c.BusyTime <= 0 {
		t.Fatalf("busy time %v", c.BusyTime)
	}
	bus.ResetCounters()
	if got := bus.Counters(); got != (Counters{}) {
		t.Fatalf("reset failed: %+v", got)
	}
}

func TestGuards(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	for name, fn := range map[string]func(){
		"nil pio":      func() { bus.PIOWrite(nil) },
		"nil dma":      func() { bus.DMA(1, nil) },
		"negative dma": func() { bus.DMA(-1, fire(func() {})) },
		"bad params":   func() { New(eng, Params{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// The PCI-X bus on the Xeon cluster is roughly twice as fast; verify the
// parameterization orders transfers correctly.
func TestPCIvsPCIX(t *testing.T) {
	lat := func(bw float64) sim.Duration {
		eng := sim.NewEngine()
		bus := New(eng, Params{PIOWrite: 400, DMASetup: 600, BandwidthMBps: bw})
		var done sim.Time
		bus.DMA(4096, fire(func() { done = eng.Now() }))
		eng.Run()
		return sim.Duration(done)
	}
	pci, pcix := lat(528), lat(1064)
	if pcix >= pci {
		t.Fatalf("PCI-X (%v) not faster than PCI (%v)", pcix, pci)
	}
}
