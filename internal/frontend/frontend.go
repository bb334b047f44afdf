// Package frontend is the gvrt intercept library: the client-side API
// an application (thread) uses in place of the CUDA runtime (§3, §4.2).
//
// In the paper, a shared library overrides the CUDA Runtime API symbols
// and redirects every call over a gVirtuS socket to the runtime daemon.
// Here, Client plays that role over a transport.Conn: each method is one
// intercepted CUDA call, sent synchronously and returning the CUDA-style
// result code the daemon produced. One Client corresponds to exactly one
// application thread — multithreaded applications open one Client per
// thread, matching the CUDA 3.2 context-per-thread semantics the
// runtime preserves (§4.2).
package frontend

import (
	"encoding/json"

	"gvrt/internal/api"
	"gvrt/internal/resilience"
	"gvrt/internal/transport"
)

// DevPtr2 is the result of a pitched allocation: the base pointer and
// the row pitch in bytes.
type DevPtr2 struct {
	Ptr   api.DevPtr
	Pitch uint64
}

// Client is one application thread's connection to a gvrt runtime (or,
// via the same wire protocol, to a peer node it was offloaded to).
// Client is not safe for concurrent use: like a CUDA application
// thread, it issues one call at a time.
type Client struct {
	conn   transport.Conn
	closed bool
	retry  *resilience.Retrier
	// The steady-state calls, one reusable value per kind: a call goes
	// out as its address, which boxes into api.Call without allocating.
	// A slice field is cleared once the call returns, so the client never
	// pins the caller's buffers.
	launch api.LaunchCall
	hd     api.MemcpyHDCall
	malloc api.MallocCall
	free   api.FreeCall
}

// Connect wraps an established connection. Use transport.Pipe for an
// in-process runtime or transport.Dial for a remote daemon.
func Connect(conn transport.Conn) *Client {
	return &Client{conn: conn}
}

// WithRetry arms transparent retries: calls failing with a transient
// code that leaves the connection intact (device unavailable, no
// device, overloaded) are re-issued under r's backoff and budget, so
// the application rides through a device re-bind or a load spike
// without seeing the error. r may be shared across clients — the
// retry budget is then the node-wide amplification cap. Returns c.
func (c *Client) WithRetry(r *resilience.Retrier) *Client {
	c.retry = r
	return c
}

// call performs one RPC and folds transport errors into CUDA codes.
func (c *Client) call(call api.Call) (api.Reply, error) {
	if c.closed {
		return api.Reply{}, api.ErrConnectionClosed
	}
	if c.retry == nil {
		r, err := c.conn.Call(call)
		if err != nil {
			return api.Reply{}, api.ErrConnectionClosed
		}
		return r, r.Code.Err()
	}
	var r api.Reply
	err := c.retry.Do(func() error {
		var cerr error
		r, cerr = c.conn.Call(call)
		if cerr != nil {
			r = api.Reply{}
			// Fold transport errors exactly like the no-retry path; the
			// classifier treats a dead conn as non-retryable here.
			return api.ErrConnectionClosed
		}
		return r.Code.Err()
	})
	return r, err
}

// RegisterFatBinary mirrors the __cudaRegisterFatBinary sequence the
// CUDA toolchain emits before main: it ships the application's kernel
// image to the runtime.
func (c *Client) RegisterFatBinary(fb api.FatBinary) error {
	_, err := c.call(&api.RegisterFatBinaryCall{Binary: fb})
	return err
}

// Malloc mirrors cudaMalloc. The returned pointer is virtual: only the
// runtime ever sees device addresses.
func (c *Client) Malloc(size uint64) (api.DevPtr, error) {
	c.malloc = api.MallocCall{Size: size}
	r, err := c.call(&c.malloc)
	return r.Ptr, err
}

// MallocPitch mirrors cudaMallocPitch: it allocates height rows of
// widthBytes, each padded to a 512-byte pitch for coalesced access, and
// returns the base pointer plus the pitch.
func (c *Client) MallocPitch(widthBytes, height uint64) (ptr DevPtr2, err error) {
	const align = 512
	pitch := (widthBytes + align - 1) &^ uint64(align-1)
	r, err := c.call(&api.MallocCall{Size: pitch * height, Kind: api.AllocPitched})
	return DevPtr2{Ptr: r.Ptr, Pitch: pitch}, err
}

// MallocArray mirrors cudaMallocArray for a width x height array of
// elemBytes elements.
func (c *Client) MallocArray(elemBytes, width, height uint64) (api.DevPtr, error) {
	if height == 0 {
		height = 1
	}
	r, err := c.call(&api.MallocCall{Size: elemBytes * width * height, Kind: api.AllocArray})
	return r.Ptr, err
}

// Memset mirrors cudaMemset.
func (c *Client) Memset(dst api.DevPtr, value byte, size uint64) error {
	_, err := c.call(&api.MemsetCall{Dst: dst, Value: value, Size: size})
	return err
}

// Free mirrors cudaFree.
func (c *Client) Free(p api.DevPtr) error {
	c.free = api.FreeCall{Ptr: p}
	_, err := c.call(&c.free)
	return err
}

// MemcpyHD mirrors cudaMemcpy(HostToDevice) with real bytes.
func (c *Client) MemcpyHD(dst api.DevPtr, data []byte) error {
	c.hd = api.MemcpyHDCall{Dst: dst, Data: data}
	_, err := c.call(&c.hd)
	c.hd.Data = nil
	return err
}

// MemcpyHDSynthetic is a host→device transfer of size bytes carrying no
// real payload — the workload models use it so multi-gigabyte modeled
// data sets cost no host memory.
func (c *Client) MemcpyHDSynthetic(dst api.DevPtr, size uint64) error {
	c.hd = api.MemcpyHDCall{Dst: dst, Size: size}
	_, err := c.call(&c.hd)
	return err
}

// MemcpyDH mirrors cudaMemcpy(DeviceToHost). The returned slice is nil
// for synthetic data.
func (c *Client) MemcpyDH(src api.DevPtr, size uint64) ([]byte, error) {
	r, err := c.call(&api.MemcpyDHCall{Src: src, Size: size})
	return r.Data, err
}

// MemcpyDD mirrors cudaMemcpy(DeviceToDevice).
func (c *Client) MemcpyDD(dst, src api.DevPtr, size uint64) error {
	_, err := c.call(&api.MemcpyDDCall{Dst: dst, Src: src, Size: size})
	return err
}

// Launch mirrors cudaConfigureCall + cudaLaunch.
func (c *Client) Launch(call api.LaunchCall) error {
	c.launch = call
	_, err := c.call(&c.launch)
	c.launch.PtrArgs, c.launch.Scalars, c.launch.ReadOnly = nil, nil, nil
	return err
}

// SetDevice mirrors cudaSetDevice. The gvrt runtime ignores it (§4.3);
// it exists so unmodified applications keep working.
func (c *Client) SetDevice(device int) error {
	_, err := c.call(&api.SetDeviceCall{Device: device})
	return err
}

// DeviceCount mirrors cudaGetDeviceCount; under gvrt it reports the
// number of virtual GPUs (§4.3).
func (c *Client) DeviceCount() (int, error) {
	r, err := c.call(&api.GetDeviceCountCall{})
	return r.Count, err
}

// Synchronize mirrors cudaDeviceSynchronize.
func (c *Client) Synchronize() error {
	_, err := c.call(&api.SynchronizeCall{})
	return err
}

// SetAppID announces the application this thread belongs to (the CUDA
// 4.0 compatibility extension of §4.8). Threads of one application
// share data on the GPU, so the runtime binds all connections carrying
// the same identifier to the same physical device. Call it before the
// first kernel launch.
func (c *Client) SetAppID(id string) error {
	_, err := c.call(&api.SetAppIDCall{AppID: id})
	return err
}

// SetTenant announces which tenant this thread belongs to, entering it
// into the tenant's control-plane quotas (session cap immediately,
// byte cap on every subsequent allocation). Fails with ErrQuotaExceeded
// when the tenant's session cap is already full.
func (c *Client) SetTenant(name string) error {
	_, err := c.call(&api.SetTenantCall{Tenant: name})
	return err
}

// RegisterNested declares a nested data structure to the runtime (§1):
// parent embeds, at offsets[i], the pointer to members[i]. Required for
// kernels that traverse nested pointers.
func (c *Client) RegisterNested(parent api.DevPtr, members []api.DevPtr, offsets []uint64) error {
	_, err := c.call(&api.RegisterNestedCall{Parent: parent, Members: members, Offsets: offsets})
	return err
}

// Stats asks the daemon for its metrics snapshot — the node-level load
// information §2 suggests exposing to cluster schedulers.
func (c *Client) Stats() (api.RuntimeStats, error) {
	r, err := c.call(&api.StatsCall{})
	if err != nil {
		return api.RuntimeStats{}, err
	}
	var out api.RuntimeStats
	if jerr := json.Unmarshal(r.Data, &out); jerr != nil {
		return api.RuntimeStats{}, api.ErrInvalidValue
	}
	return out, nil
}

// SessionID returns the identifier under which the node's journal keeps
// this thread's memory state; after a node restart, failover or
// migration, a new connection can Resume it (§4.6's full-restart
// capability).
func (c *Client) SessionID() (int64, error) {
	r, err := c.call(&api.GetSessionCall{})
	return r.ID, err
}

// Resume re-attaches this fresh connection to memory state persisted
// under id before a node restart. It must precede any allocation on
// this connection; virtual pointers from the previous session remain
// valid afterwards.
func (c *Client) Resume(id int64) error {
	_, err := c.call(&api.ResumeCall{ID: id})
	return err
}

// Checkpoint asks the runtime to capture the thread's device state in
// host memory (§2, §4.6), so a later device failure costs no recompute.
func (c *Client) Checkpoint() error {
	_, err := c.call(&api.CheckpointCall{})
	return err
}

// Migrate ships this connection's session to the node listening at
// target (DESIGN.md §13). On success the local copy is deposed — any
// further mutating call on this connection fails with ErrFenced — and
// the caller should reconnect to target and Resume under the session ID
// from Session().
func (c *Client) Migrate(target string) error {
	_, err := c.call(&api.MigrateCall{Target: target})
	return err
}

// Adopt asks the connected runtime to recover every session committed
// in journal directory dir — a dead peer's durable state on shared
// storage — as resumable orphan sessions (failover promotion). Returns
// the number of sessions adopted.
func (c *Client) Adopt(dir string) (int, error) {
	r, err := c.call(&api.AdoptCall{Dir: dir})
	return r.Count, err
}

// Close announces an orderly exit and tears the connection down.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	_, _ = c.call(&api.ExitCall{})
	c.closed = true
	return c.conn.Close()
}
