package workload

import (
	"gvrt/internal/api"
	"gvrt/internal/cudart"
)

// BareClient runs an application directly against the simulated CUDA
// runtime — the paper's baseline. Each client is one application
// process: it attaches to the runtime (subject to the stability limit
// on concurrent processes) and owns one CUDA context on the device it
// selected, with no virtual memory, no swapping and no dynamic binding.
type BareClient struct {
	crt    *cudart.Runtime
	proc   *cudart.Process
	ctx    *cudart.Context
	device int
	closed bool
}

var _ CUDA = (*BareClient)(nil)

// NewBareClient attaches a new application process to the bare CUDA
// runtime and creates its context on the given device (applications
// pick their device with cudaSetDevice; unmodified CUDA programs
// default to device 0).
func NewBareClient(crt *cudart.Runtime, device int) (*BareClient, error) {
	proc, err := crt.AttachProcess()
	if err != nil {
		return nil, err
	}
	ctx, err := crt.CreateContext(device)
	if err != nil {
		proc.Detach()
		return nil, err
	}
	return &BareClient{crt: crt, proc: proc, ctx: ctx, device: device}, nil
}

// RegisterFatBinary implements CUDA.
func (b *BareClient) RegisterFatBinary(fb api.FatBinary) error {
	return b.ctx.RegisterFatBinary(fb)
}

// Malloc implements CUDA.
func (b *BareClient) Malloc(size uint64) (api.DevPtr, error) { return b.ctx.Malloc(size) }

// Free implements CUDA.
func (b *BareClient) Free(p api.DevPtr) error {
	_, err := b.ctx.Free(p)
	return err
}

// MemcpyHDSynthetic implements CUDA.
func (b *BareClient) MemcpyHDSynthetic(dst api.DevPtr, size uint64) error {
	return b.ctx.MemcpyHD(dst, nil, size)
}

// MemcpyDH implements CUDA.
func (b *BareClient) MemcpyDH(src api.DevPtr, size uint64) ([]byte, error) {
	return b.ctx.MemcpyDH(src, size)
}

// Launch implements CUDA.
func (b *BareClient) Launch(call api.LaunchCall) error { return b.ctx.Launch(call) }

// Checkpoint implements CUDA: the bare runtime has no checkpoint
// capability, so this is a no-op (applications relying on it must run
// under gvrt).
func (b *BareClient) Checkpoint() error { return nil }

// Close destroys the context and detaches the process.
func (b *BareClient) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	b.ctx.Destroy()
	b.proc.Detach()
	return nil
}
