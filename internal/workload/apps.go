package workload

import (
	"time"

	"gvrt/internal/api"
	"gvrt/internal/sim"
)

// This file defines the Table 2 benchmark programs. Kernel durations,
// CPU phases and memory footprints are calibrated (DESIGN.md §5) so
// that on the reference Tesla C2050:
//
//   - each short-running program takes 3–5 model seconds standalone,
//     with roughly 60–70% of that in kernels (the programs are
//     GPU-intensive but alternate CPU phases, which is what sharing
//     exploits);
//   - long-running programs take 30–90 s depending on the injected CPU
//     fraction (§5.3.3);
//   - kernel-call counts match Table 2's third column exactly;
//   - MM-L's footprint (1.2 GB) creates memory conflicts as soon as
//     three jobs land on one 3 GB GPU (§5.3.3), while all short
//     programs stay well below device capacity.

const mib = 1 << 20

// kernel builds a one-kernel fat binary plus metadata.
func binary(app string, kernels ...api.KernelMeta) api.FatBinary {
	return api.FatBinary{ID: "tbl2/" + app, Kernels: kernels}
}

// BP is Back Propagation: training of 20 neural networks with 64K
// nodes per input layer; 40 kernel calls.
func BP() App {
	bin := binary("BP", api.KernelMeta{Name: "bp_layer", BaseTime: 55 * time.Millisecond})
	app := App{Name: "BP", Binary: bin, MemBytes: 50 * mib, KernelCalls: 40}
	app.Ops = append(app.Ops,
		MallocOp{0, 16 * mib}, MallocOp{1, 32 * mib}, MallocOp{2, 2 * mib},
		CopyHDOp{0, 16 * mib}, CopyHDOp{1, 32 * mib},
	)
	for net := 0; net < 20; net++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "bp_layer", Bufs: []int{0, 1, 2}, Repeat: 2, ReadOnly: []bool{true, false, false}},
			CPUPhase{35 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops, CopyDHOp{1, 32 * mib}, FreeOp{0}, FreeOp{1}, FreeOp{2})
	return app
}

// BFS is Breadth-First Search: traversal of a graph with 1M nodes;
// 24 kernel calls (one per frontier level, in bursts).
func BFS() App {
	bin := binary("BFS", api.KernelMeta{Name: "bfs_level", BaseTime: 90 * time.Millisecond})
	app := App{Name: "BFS", Binary: bin, MemBytes: 24 * mib, KernelCalls: 24}
	app.Ops = append(app.Ops,
		MallocOp{0, 16 * mib}, MallocOp{1, 4 * mib}, MallocOp{2, 4 * mib},
		CopyHDOp{0, 16 * mib}, CopyHDOp{1, 4 * mib},
	)
	for burst := 0; burst < 6; burst++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "bfs_level", Bufs: []int{0, 1, 2}, Repeat: 4, ReadOnly: []bool{true, false, false}},
			CPUPhase{100 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops, CopyDHOp{2, 4 * mib}, FreeOp{0}, FreeOp{1}, FreeOp{2})
	return app
}

// HS is HotSpot: thermal simulation of 1M grid cells; a single long
// kernel call.
func HS() App {
	bin := binary("HS", api.KernelMeta{Name: "hotspot", BaseTime: 2600 * time.Millisecond})
	return App{
		Name: "HS", Binary: bin, MemBytes: 16 * mib, KernelCalls: 1,
		Ops: []Op{
			MallocOp{0, 8 * mib}, MallocOp{1, 8 * mib},
			CopyHDOp{0, 8 * mib}, CopyHDOp{1, 8 * mib},
			CPUPhase{300 * time.Millisecond},
			KernelOp{Name: "hotspot", Bufs: []int{0, 1}, ReadOnly: []bool{true, false}},
			CPUPhase{300 * time.Millisecond},
			CopyDHOp{1, 8 * mib},
			FreeOp{0}, FreeOp{1},
		},
	}
}

// NW is Needleman-Wunsch: DNA sequence alignment of 2K potential pairs;
// 256 kernel calls in 8 anti-diagonal sweeps.
func NW() App {
	bin := binary("NW", api.KernelMeta{Name: "nw_diag", BaseTime: 8500 * time.Microsecond})
	app := App{Name: "NW", Binary: bin, MemBytes: 33 * mib, KernelCalls: 256}
	app.Ops = append(app.Ops,
		MallocOp{0, 16 * mib}, MallocOp{1, 16 * mib}, MallocOp{2, mib},
		CopyHDOp{0, 16 * mib}, CopyHDOp{1, 16 * mib},
	)
	for sweep := 0; sweep < 8; sweep++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "nw_diag", Bufs: []int{0, 1, 2}, Repeat: 32},
			CPUPhase{80 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops, CopyDHOp{2, mib}, FreeOp{0}, FreeOp{1}, FreeOp{2})
	return app
}

// SP is Scalar Product of 512 vector pairs of 1M elements; one kernel.
func SP() App {
	bin := binary("SP", api.KernelMeta{Name: "sdot", BaseTime: 2 * time.Second})
	return App{
		Name: "SP", Binary: bin, MemBytes: 512*mib + 4096, KernelCalls: 1,
		Ops: []Op{
			MallocOp{0, 256 * mib}, MallocOp{1, 256 * mib}, MallocOp{2, 4096},
			CopyHDOp{0, 256 * mib}, CopyHDOp{1, 256 * mib},
			CPUPhase{350 * time.Millisecond},
			KernelOp{Name: "sdot", Bufs: []int{0, 1, 2}, ReadOnly: []bool{true, true, false}},
			CPUPhase{350 * time.Millisecond},
			CopyDHOp{2, 4096},
			FreeOp{0}, FreeOp{1}, FreeOp{2},
		},
	}
}

// MT is Matrix Transpose of a 384x384 matrix, repeated; 816 kernel
// calls in 8 bursts.
func MT() App {
	bin := binary("MT", api.KernelMeta{Name: "transpose", BaseTime: 2700 * time.Microsecond})
	app := App{Name: "MT", Binary: bin, MemBytes: 2 * mib, KernelCalls: 816}
	app.Ops = append(app.Ops,
		MallocOp{0, mib}, MallocOp{1, mib},
		CopyHDOp{0, mib},
	)
	for burst := 0; burst < 8; burst++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "transpose", Bufs: []int{0, 1}, Repeat: 102, ReadOnly: []bool{true, false}},
			CPUPhase{80 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops, CopyDHOp{1, mib}, FreeOp{0}, FreeOp{1})
	return app
}

// PR is Parallel Reduction of 4M elements; 801 kernel calls.
func PR() App {
	bin := binary("PR",
		api.KernelMeta{Name: "reduce", BaseTime: 2700 * time.Microsecond},
		api.KernelMeta{Name: "reduce_final", BaseTime: 4 * time.Millisecond},
	)
	app := App{Name: "PR", Binary: bin, MemBytes: 17 * mib, KernelCalls: 801}
	app.Ops = append(app.Ops,
		MallocOp{0, 16 * mib}, MallocOp{1, mib},
		CopyHDOp{0, 16 * mib},
	)
	for burst := 0; burst < 8; burst++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "reduce", Bufs: []int{0, 1}, Repeat: 100, ReadOnly: []bool{true, false}},
			CPUPhase{80 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops,
		KernelOp{Name: "reduce_final", Bufs: []int{1}},
		CopyDHOp{1, 4096},
		FreeOp{0}, FreeOp{1},
	)
	return app
}

// SC is Scan (parallel prefix sum) of 260K elements; 3,300 kernel
// calls in 10 bursts.
func SC() App {
	bin := binary("SC", api.KernelMeta{Name: "scan", BaseTime: 700 * time.Microsecond})
	app := App{Name: "SC", Binary: bin, MemBytes: 2 * mib, KernelCalls: 3300}
	app.Ops = append(app.Ops,
		MallocOp{0, mib}, MallocOp{1, mib},
		CopyHDOp{0, mib},
	)
	for burst := 0; burst < 10; burst++ {
		app.Ops = append(app.Ops,
			KernelOp{Name: "scan", Bufs: []int{0, 1}, Repeat: 330},
			CPUPhase{60 * time.Millisecond},
		)
	}
	app.Ops = append(app.Ops, CopyDHOp{1, mib}, FreeOp{0}, FreeOp{1})
	return app
}

// blackScholes builds the Black-Scholes option-pricing trace shared by
// BS-S (4M options) and BS-L (40M options): 256 kernel calls over five
// buffers (three inputs, two outputs).
func blackScholes(name string, optionBytes uint64, kernelTime time.Duration, cpu time.Duration, long bool) App {
	bin := binary(name, api.KernelMeta{Name: "black_scholes", BaseTime: kernelTime})
	app := App{
		Name: name, Binary: bin,
		MemBytes: 5 * optionBytes, KernelCalls: 256, LongRunning: long,
	}
	app.Ops = append(app.Ops,
		MallocOp{0, optionBytes}, MallocOp{1, optionBytes}, MallocOp{2, optionBytes},
		MallocOp{3, optionBytes}, MallocOp{4, optionBytes},
		CopyHDOp{0, optionBytes}, CopyHDOp{1, optionBytes}, CopyHDOp{2, optionBytes},
	)
	for burst := 0; burst < 8; burst++ {
		app.Ops = append(app.Ops,
			KernelOp{
				Name: "black_scholes", Bufs: []int{0, 1, 2, 3, 4}, Repeat: 32,
				ReadOnly: []bool{true, true, true, false, false},
			},
			CPUPhase{cpu},
		)
	}
	app.Ops = append(app.Ops,
		CopyDHOp{3, optionBytes}, CopyDHOp{4, optionBytes},
		FreeOp{0}, FreeOp{1}, FreeOp{2}, FreeOp{3}, FreeOp{4},
	)
	return app
}

// BSS is Black Scholes - small: processing of 4M financial options;
// 256 kernel calls.
func BSS() App {
	return blackScholes("BS-S", 16*mib, 8500*time.Microsecond, 80*time.Millisecond, false)
}

// BSL is Black Scholes - large: processing of 40M financial options;
// 256 kernel calls, long-running and GPU-intensive with very short CPU
// phases (§5.3.3).
func BSL() App {
	return blackScholes("BS-L", 160*mib, 130*time.Millisecond, 50*time.Millisecond, true)
}

// VA is Vector Addition of 100M elements; a single kernel over three
// large buffers.
func VA() App {
	bin := binary("VA", api.KernelMeta{Name: "vecadd", BaseTime: 1900 * time.Millisecond})
	const buf = 133 * mib
	return App{
		Name: "VA", Binary: bin, MemBytes: 3 * buf, KernelCalls: 1,
		Ops: []Op{
			MallocOp{0, buf}, MallocOp{1, buf}, MallocOp{2, buf},
			CopyHDOp{0, buf}, CopyHDOp{1, buf},
			CPUPhase{300 * time.Millisecond},
			KernelOp{Name: "vecadd", Bufs: []int{0, 1, 2}, ReadOnly: []bool{true, true, false}},
			CPUPhase{300 * time.Millisecond},
			CopyDHOp{2, buf},
			FreeOp{0}, FreeOp{1}, FreeOp{2},
		},
	}
}

// MMS is Small Matrix Multiplication: 200 multiplications of 2Kx2K
// matrices with injected CPU phases of cpuFraction times the kernel
// time (§5.3.4). Footprint 48 MB.
func MMS(cpuFraction float64) App {
	const kernel = 150 * time.Millisecond
	bin := binary("MM-S", api.KernelMeta{Name: "matmul_s", BaseTime: kernel})
	app := App{
		Name: "MM-S", Binary: bin,
		MemBytes: 48 * mib, KernelCalls: 200, LongRunning: true,
	}
	app.Ops = append(app.Ops,
		MallocOp{0, 16 * mib}, MallocOp{1, 16 * mib}, MallocOp{2, 16 * mib},
		CopyHDOp{1, 16 * mib},
	)
	cpu := time.Duration(cpuFraction * float64(kernel))
	for i := 0; i < 200; i++ {
		app.Ops = append(app.Ops, CopyHDOp{0, 16 * mib},
			KernelOp{Name: "matmul_s", Bufs: []int{0, 1, 2}, ReadOnly: []bool{true, true, false}})
		if cpu > 0 {
			app.Ops = append(app.Ops, CopyDHOp{2, 16 * mib}, CPUPhase{cpu})
		}
	}
	app.Ops = append(app.Ops, CopyDHOp{2, 16 * mib}, FreeOp{0}, FreeOp{1}, FreeOp{2})
	return app
}

// MML is Large Matrix Multiplication: 10 multiplications of 10Kx10K
// matrices (400 MB each, 1.2 GB footprint) with injected CPU phases of
// cpuFraction times the kernel time (§5.3.3). Its data size creates
// conflicting memory requirements as soon as three jobs share a 3 GB
// GPU.
func MML(cpuFraction float64) App {
	const kernel = 3 * time.Second
	const matrix = 400 * mib
	bin := binary("MM-L", api.KernelMeta{Name: "matmul_l", BaseTime: kernel})
	app := App{
		Name: "MM-L", Binary: bin,
		MemBytes: 3 * matrix, KernelCalls: 10, LongRunning: true,
	}
	app.Ops = append(app.Ops,
		MallocOp{0, matrix}, MallocOp{1, matrix}, MallocOp{2, matrix},
	)
	cpu := time.Duration(cpuFraction * float64(kernel))
	for i := 0; i < 10; i++ {
		app.Ops = append(app.Ops,
			CopyHDOp{0, matrix}, CopyHDOp{1, matrix},
			KernelOp{Name: "matmul_l", Bufs: []int{0, 1, 2}, ReadOnly: []bool{true, true, false}},
			CopyDHOp{2, matrix},
		)
		if cpu > 0 {
			app.Ops = append(app.Ops, CPUPhase{cpu})
		}
	}
	app.Ops = append(app.Ops, FreeOp{0}, FreeOp{1}, FreeOp{2})
	return app
}

// ShortApps returns constructors for the ten short-running programs of
// Table 2, in table order.
func ShortApps() []func() App {
	return []func() App{BP, BFS, HS, NW, SP, MT, PR, SC, BSS, VA}
}

// RandomShortBatch draws n jobs uniformly from the short-running pool
// (§5.3.1's methodology); the same seed reproduces the same draw so a
// batch can be replayed on every runtime configuration.
func RandomShortBatch(rng *sim.RNG, n int) []App {
	pool := ShortApps()
	batch := make([]App, n)
	for i := range batch {
		batch[i] = pool[rng.Intn(len(pool))]()
	}
	return batch
}

// MixedBatch builds n jobs of which bslPercent% are BS-L and the rest
// MM-L with the given CPU fraction (the Figure 8 workload mix).
func MixedBatch(n, bslPercent int, mmlCPUFraction float64) []App {
	batch := make([]App, n)
	nBSL := n * bslPercent / 100
	for i := range batch {
		if i < nBSL {
			batch[i] = BSL()
		} else {
			batch[i] = MML(mmlCPUFraction)
		}
	}
	return batch
}

// AllApps returns one instance of every Table 2 program (CPU fraction 1
// for the matrix multiplications), for table generation and tests.
func AllApps() []App {
	apps := make([]App, 0, 13)
	for _, f := range ShortApps() {
		apps = append(apps, f())
	}
	apps = append(apps, MMS(1), MML(1), BSL())
	return apps
}

// ByName builds one Table 2 program by name; cpuFraction applies to the
// parameterised matrix multiplications (MM-S, MM-L) and is ignored for
// the rest. ok is false for an unknown name.
func ByName(name string, cpuFraction float64) (App, bool) {
	switch name {
	case "MM-S":
		return MMS(cpuFraction), true
	case "MM-L":
		return MML(cpuFraction), true
	}
	for _, app := range AllApps() {
		if app.Name == name {
			return app, true
		}
	}
	return App{}, false
}
