// Package gpu models the GPU devices the paper's evaluation runs on.
//
// A Device owns a fixed-capacity device memory managed by a first-fit
// allocator (so fragmentation and allocation failure behave like
// cudaMalloc), a single execution engine that kernels occupy one at a
// time (contexts time-share the processing cores, as on Fermi-class
// parts), and a single DMA engine through which host↔device transfers
// move at PCIe-like bandwidth. Devices can fail and be restored, and are
// added to / removed from a node at runtime by the layers above.
//
// All durations are model time, executed through a sim.Clock.
package gpu

import "time"

// Spec describes a GPU model. Speed is the device's kernel throughput
// relative to the reference device (Tesla C2050 = 1.0); a kernel whose
// metadata says BaseTime t runs in t/Speed on the device.
type Spec struct {
	Name       string
	SMs        int
	CoresPerSM int
	ClockMHz   int
	// MemBytes is the device memory capacity.
	MemBytes uint64
	// Speed is kernel throughput relative to the Tesla C2050.
	Speed float64
	// BandwidthBps is the host↔device DMA bandwidth in bytes per model
	// second.
	BandwidthBps uint64
}

// Predefined device models, matching §5.1 of the paper. Relative speeds
// follow the paper's qualitative ranking (C2050 fastest, C1060 mid,
// Quadro 2000 "less powerful"); see DESIGN.md §6.
var (
	TeslaC2050 = Spec{
		Name: "Tesla C2050", SMs: 14, CoresPerSM: 32, ClockMHz: 1150,
		MemBytes: 3 << 30, Speed: 1.0, BandwidthBps: 6 << 30,
	}
	TeslaC1060 = Spec{
		Name: "Tesla C1060", SMs: 30, CoresPerSM: 8, ClockMHz: 1300,
		MemBytes: 4 << 30, Speed: 0.60, BandwidthBps: 5 << 30,
	}
	Quadro2000 = Spec{
		Name: "Quadro 2000", SMs: 4, CoresPerSM: 48, ClockMHz: 1250,
		MemBytes: 1 << 30, Speed: 0.35, BandwidthBps: 4 << 30,
	}
)

// Fixed per-operation overheads (model time), calibrated in DESIGN.md §6.
const (
	// LaunchOverhead is charged per kernel launch.
	LaunchOverhead = 10 * time.Microsecond
	// MemcpyOverhead is charged per DMA transfer, on top of the
	// bandwidth-proportional part.
	MemcpyOverhead = 20 * time.Microsecond
	// ContextCreateTime is the cost of spawning a CUDA context on the
	// device (paid by cudart at context creation).
	ContextCreateTime = 15 * time.Millisecond
)
