// Package hwprofile holds the calibrated hardware constants for the three
// testbeds of the paper's evaluation:
//
//   - a 16-node quad-SMP 700 MHz Pentium-III cluster, 66 MHz/64-bit PCI,
//     Myrinet 2000 with 133 MHz LANai 9.1 NICs (Fig. 5);
//   - an 8-node dual 2.4 GHz Xeon cluster, 133 MHz/64-bit PCI-X,
//     Myrinet 2000 with 225 MHz LANai-XP NICs (Fig. 6);
//   - the first cluster's 8-node QsNet/Elan3 network (Elite-16 quaternary
//     fat tree, QM-400 cards) (Fig. 7).
//
// Firmware handler costs are expressed in NIC cycles so that the same
// control program is automatically slower on the 133 MHz card than on the
// 225 MHz card — exactly how the two Myrinet testbeds differ. Fixed,
// clock-independent per-message costs model the link interface and DMA
// engines. The constants were calibrated so the simulated 8- and 16-node
// latencies land near the paper's measurements; the summary experiment
// (go run ./cmd/barrier-bench -fig summary) prints paper-vs-measured
// numbers.
package hwprofile

import (
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/pci"
	"nicbarrier/internal/sim"
)

// Host describes the host CPU side of a node.
type Host struct {
	// ClockMHz is the host CPU clock.
	ClockMHz float64
	// SendPostCycles is the host work to build and post one send (or
	// barrier) descriptor, before the PIO write.
	SendPostCycles int64
	// RecvPollCycles is the host work to notice and consume one event.
	RecvPollCycles int64
	// TokenPostCycles is the host work to re-post one receive buffer.
	TokenPostCycles int64
}

// MyrinetNIC describes a LANai processor running the Myrinet Control
// Program, in firmware-handler cycle costs.
type MyrinetNIC struct {
	ClockMHz float64

	// Point-to-point path (Section 4.2 of the paper).
	TokenTranslate int64 // send event -> send token, enqueue to dest queue
	TokenSchedule  int64 // round-robin dequeue and dispatch
	PacketClaim    int64 // wait-free part of claiming a send packet
	PacketFill     int64 // header build around the data DMA
	SendRecord     int64 // create send record + timestamp
	SeqCheck       int64 // receiver-side sequence check
	RecvTokenMatch int64 // locate a posted receive token
	AckBuild       int64 // build + push an ACK
	AckProcess     int64 // sender-side ACK handling, record release
	EventPost      int64 // build a host event before its DMA
	TokenPost      int64 // translate a host-posted receive token

	// Collective protocol path (Sections 3 and 6).
	CollEnqueue  int64 // barrier doorbell -> group queue token + send record
	CollRecv     int64 // arrived collective message: bit vector update
	CollTrigger  int64 // fire one message from the static packet
	CollComplete int64 // completion bookkeeping before the host event

	// Fixed per-message costs (clock-independent link/DMA engine work).
	SendFixed sim.Duration
	RecvFixed sim.Duration

	// SendPacketPool is the number of send packet buffers; p2p senders
	// stall when all are in flight (awaiting ACK).
	SendPacketPool int

	// GroupQueueSlots is the number of NIC-resident group-queue entries
	// (collective or direct). The paper's protocol keeps "a separate
	// queue for a particular process group" in LANai SRAM, so the table
	// is a hard, small resource: installing more concurrent groups than
	// slots fails cleanly.
	GroupQueueSlots int

	// RetransmitTimeout drives sender-side timeout retransmission for
	// the p2p path; NackTimeout drives receiver-driven retransmission
	// for the collective path. Both are far above one barrier latency so
	// they fire only on real loss.
	RetransmitTimeout sim.Duration
	NackTimeout       sim.Duration

	// GroupInstallCost and GroupUninstallCost model the NIC-side work of
	// writing (resp. retiring) a group-queue entry in LANai SRAM: the
	// host pushes the member table and schedule over PIO and the firmware
	// initializes the bit-vector send record. Both occupy the firmware
	// processor, so a NIC that is installing or tearing down a group
	// delays co-resident groups' handlers — the lifecycle cost the
	// communicator layer charges on the simulated timeline. The one-shot
	// measurement sessions install during setup (before the measured
	// window, like MPI_Init) and are never charged.
	GroupInstallCost   sim.Duration
	GroupUninstallCost sim.Duration
}

// ElanNIC describes a Quadrics Elan3 card: an RDMA/DMA engine plus an
// event unit with chained-descriptor triggering.
type ElanNIC struct {
	ClockMHz float64

	DMADescCycles   int64 // DMA engine processes one RDMA descriptor
	EventFireCycles int64 // firing an event on packet arrival
	ChainCycles     int64 // a chained event triggers the next descriptor

	// ChainSlots is the number of chained-descriptor lists (one per
	// process group) that fit in Elan SRAM; arming more fails cleanly.
	ChainSlots int

	// GroupInstallCost and GroupUninstallCost model arming (resp.
	// disarming) a chained-descriptor list from user level: the host
	// writes one RDMA descriptor per schedule step plus the event
	// bindings into Elan SRAM. Charged by the communicator layer's
	// lifecycle paths; one-shot sessions arm during setup for free.
	GroupInstallCost   sim.Duration
	GroupUninstallCost sim.Duration

	// HostEventWrite is the latency for the NIC to make a completion
	// visible in host memory (Elan writes host memory directly).
	HostEventWrite sim.Duration

	// SendFixed is the clock-independent injection cost per RDMA.
	SendFixed sim.Duration

	// Hardware-broadcast barrier (elan_hgsync) model: one network
	// transaction through the fat tree with switch-level combining.
	HWBarrierBase     sim.Duration
	HWBarrierPerLevel sim.Duration
}

// Profile is one testbed's hardware constants. Its concrete type is the
// backend selector: comm.NewCluster builds a Myrinet cluster from a
// MyrinetProfile and a Quadrics one from a QuadricsProfile.
type Profile interface {
	// Wire is the network's physical parameters.
	Wire() netsim.Params
}

// Wire implements Profile.
func (p MyrinetProfile) Wire() netsim.Params { return p.Net }

// Wire implements Profile.
func (p QuadricsProfile) Wire() netsim.Params { return p.Net }

// MyrinetProfile bundles everything needed to instantiate one Myrinet
// cluster node.
type MyrinetProfile struct {
	Name string
	Host Host
	NIC  MyrinetNIC
	PCI  pci.Params
	Net  netsim.Params

	DataHeaderBytes int // wire header on data packets
	AckBytes        int // ACK packet size
	BarrierBytes    int // static collective packet (padded ACK + integer)
	EventBytes      int // host event record DMAed to host memory
}

// QuadricsProfile bundles everything needed for one QsNet/Elan3 node.
type QuadricsProfile struct {
	Name string
	Host Host
	NIC  ElanNIC
	PCI  pci.Params
	Net  netsim.Params

	FatTreeArity int // QsNet is quaternary
	BarrierBytes int // zero-byte RDMA still carries a routed header
	EventBytes   int

	// Elanlib's gsync tree keeps host-side tree bookkeeping (Tports,
	// wait-event management) that a bare chain trigger does not pay;
	// these replace/extend the generic host costs on the gsync path.
	GsyncPostCycles      int64
	GsyncPollExtraCycles int64
}

// LANai91Cluster is the 16-node 700 MHz PIII / LANai 9.1 / PCI-66 testbed
// of Fig. 5.
func LANai91Cluster() MyrinetProfile {
	p := baseMyrinet()
	p.Name = "myrinet-lanai9.1-700MHz"
	p.Host = Host{
		ClockMHz:        700,
		SendPostCycles:  1150,
		RecvPollCycles:  1600,
		TokenPostCycles: 550,
	}
	p.NIC.ClockMHz = 133
	p.PCI = pci.Params{
		PIOWrite:      sim.Nanos(500),
		DMASetup:      sim.Nanos(850),
		BandwidthMBps: 528, // 66 MHz * 64 bit
	}
	return p
}

// LANaiXPCluster is the 8-node 2.4 GHz Xeon / LANai-XP / PCI-X testbed of
// Fig. 6.
func LANaiXPCluster() MyrinetProfile {
	p := baseMyrinet()
	p.Name = "myrinet-lanaixp-2.4GHz"
	p.Host = Host{
		ClockMHz:        2400,
		SendPostCycles:  950,
		RecvPollCycles:  1200,
		TokenPostCycles: 500,
	}
	p.NIC.ClockMHz = 225
	p.PCI = pci.Params{
		PIOWrite:      sim.Nanos(400),
		DMASetup:      sim.Nanos(600),
		BandwidthMBps: 1064, // 133 MHz * 64 bit PCI-X
	}
	return p
}

func baseMyrinet() MyrinetProfile {
	return MyrinetProfile{
		NIC: MyrinetNIC{
			// p2p handler costs; identical firmware on both cards.
			TokenTranslate: 220,
			TokenSchedule:  160,
			PacketClaim:    120,
			PacketFill:     190,
			SendRecord:     150,
			SeqCheck:       140,
			RecvTokenMatch: 150,
			AckBuild:       120,
			AckProcess:     150,
			EventPost:      140,
			TokenPost:      160,

			// Collective protocol: one enqueue per barrier, slim
			// per-message handlers, no per-packet records.
			CollEnqueue:  150,
			CollRecv:     220,
			CollTrigger:  187,
			CollComplete: 70,

			SendFixed: sim.Nanos(900),
			RecvFixed: sim.Nanos(583),

			SendPacketPool:    8,
			GroupQueueSlots:   8,
			RetransmitTimeout: sim.Micros(400),
			NackTimeout:       sim.Micros(400),

			// Install writes the member table + schedule and initializes
			// the bit-vector record (a few hundred PIO words); uninstall
			// only retires the entry and frees the static packet.
			GroupInstallCost:   sim.Micros(3),
			GroupUninstallCost: sim.Micros(1.2),
		},
		Net: netsim.Params{
			WirePerHop:    sim.Nanos(25),
			SwitchLatency: sim.Nanos(50),
			BandwidthMBps: 250, // Myrinet 2000: 2 Gb/s
		},
		DataHeaderBytes: 16,
		AckBytes:        16,
		BarrierBytes:    20, // padded ACK packet carrying one integer
		EventBytes:      16,
	}
}

// Elan3Cluster is the 8-node QsNet side of the 700 MHz cluster (Fig. 7).
// The network is sized for up to 16 hosts (dimension-2 quaternary fat
// tree); the scalability study grows the dimension as needed.
func Elan3Cluster() QuadricsProfile {
	return QuadricsProfile{
		Name: "quadrics-elan3-700MHz",
		Host: Host{
			ClockMHz:        700,
			SendPostCycles:  140,
			RecvPollCycles:  140,
			TokenPostCycles: 100,
		},
		NIC: ElanNIC{
			ClockMHz:        66, // Elan3 core clock
			DMADescCycles:   35,
			EventFireCycles: 28,
			ChainCycles:     22,
			ChainSlots:      8,
			// Arming writes one descriptor + event binding per schedule
			// step from user level; disarming invalidates the list head.
			GroupInstallCost:   sim.Micros(2),
			GroupUninstallCost: sim.Nanos(800),
			HostEventWrite:     sim.Nanos(300),
			SendFixed:          sim.Nanos(250),
			// Calibrated so an 8-node (2-level) hgsync lands at the
			// paper's 4.20us and growth to 1024 nodes stays shallow.
			HWBarrierBase:     sim.Nanos(2050),
			HWBarrierPerLevel: sim.Nanos(450),
		},
		PCI: pci.Params{
			PIOWrite:      sim.Nanos(250),
			DMASetup:      sim.Nanos(500),
			BandwidthMBps: 528,
		},
		Net: netsim.Params{
			WirePerHop:    sim.Nanos(20),
			SwitchLatency: sim.Nanos(35),
			BandwidthMBps: 325, // QsNet link rate
		},
		FatTreeArity: 4,
		BarrierBytes: 8,
		EventBytes:   16,

		GsyncPostCycles:      400,
		GsyncPollExtraCycles: 350,
	}
}
