package cudart

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/gpu"
	"gvrt/internal/sim"
)

// precedenceEnv is one fresh device with two contexts on it: c, the
// context under test, and other, which owns foreign.
type precedenceEnv struct {
	rt  *Runtime
	dev *gpu.Device
	c   *Context
	// own is c's allocation of 100 bytes: the device rounds it to 256,
	// so [own+100, own+256) is slack the context never asked for.
	own, foreign api.DevPtr
	// availWithoutC is the device's free memory before c existed.
	availWithoutC uint64
}

func (e *precedenceEnv) interior() api.DevPtr { return e.own + 1 }
func (e *precedenceEnv) slack() api.DevPtr    { return e.own + 100 }

// never arms a rule that is consulted on every occurrence and fires on
// none, so the plane counts how often each device hook is asked.
const never = 1 << 62

// Unarmed, the device has no hooks and the plane is nil: a transfer the
// clock cannot delay is then admitted and landed in one hold.
func newPrecedenceEnv(t *testing.T, armed bool) (*precedenceEnv, *faultinject.Plane) {
	t.Helper()
	clock := sim.NewClock(1e-6)
	dev := gpu.NewDevice(0, gpu.TeslaC2050, clock)
	var plane *faultinject.Plane
	if armed {
		plane = faultinject.New(faultinject.Plan{Name: "precedence", Rules: []faultinject.Rule{
			{Point: faultinject.PointDeviceMalloc, AtNth: never, Action: faultinject.ActError},
			{Point: faultinject.PointDeviceDMA, AtNth: never, Action: faultinject.ActError},
			{Point: faultinject.PointDeviceExec, AtNth: never, Action: faultinject.ActError},
		}})
		dev.InstallFaults(plane)
	}
	e := &precedenceEnv{rt: New(clock, dev), dev: dev}
	other, err := e.rt.CreateContext(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.foreign, err = other.Malloc(100); err != nil {
		t.Fatal(err)
	}
	e.availWithoutC = dev.Available()
	if e.c, err = e.rt.CreateContext(0); err != nil {
		t.Fatal(err)
	}
	if e.own, err = e.c.Malloc(100); err != nil {
		t.Fatal(err)
	}
	if err := e.c.RegisterFatBinary(api.FatBinary{
		ID:      "precedence",
		Kernels: []api.KernelMeta{{Name: "k", BaseTime: time.Microsecond}},
	}); err != nil {
		t.Fatal(err)
	}
	return e, plane
}

// hookCounts is how many times the device's malloc, DMA and exec fault
// hooks were consulted.
type hookCounts struct{ malloc, dma, exec uint64 }

func countHooks(p *faultinject.Plane) hookCounts {
	occ := p.Occurrences()
	return hookCounts{
		malloc: occ[string(faultinject.PointDeviceMalloc)+"/gpu0"],
		dma:    occ[string(faultinject.PointDeviceDMA)+"/gpu0"],
		exec:   occ[string(faultinject.PointDeviceExec)+"/gpu0"],
	}
}

// TestErrorPrecedence pins which error each entry point of a context
// answers when one or several things are wrong at once — a destroyed
// context, a pointer the context does not own (another context's, or
// its own allocation's slack past the length it asked for), an interior
// pointer, a failed device, an unknown kernel — and how many times each
// device fault hook is consulted on the way, which is how far the call
// got into the device before it was refused. Each row runs twice, with
// the hooks armed and without them, and must answer the same both ways.
func TestErrorPrecedence(t *testing.T) {
	hd := func(ptrs ...api.DevPtr) func(e *precedenceEnv) error {
		return func(e *precedenceEnv) error {
			items := make([]api.HDCopy, len(ptrs))
			for i, p := range ptrs {
				items[i] = api.HDCopy{Dst: p, Data: []byte{1, 2, 3, 4}}
			}
			_, err := e.c.MemcpyHDBatch(items)
			return err
		}
	}
	dh := func(ptrs ...api.DevPtr) func(e *precedenceEnv) error {
		return func(e *precedenceEnv) error {
			items := make([]api.DHCopy, len(ptrs))
			for i, p := range ptrs {
				items[i] = api.DHCopy{Src: p, Size: 4}
			}
			_, _, err := e.c.MemcpyDHBatch(items)
			return err
		}
	}
	launch := func(kernel string, ptr func(e *precedenceEnv) api.DevPtr) func(e *precedenceEnv) error {
		return func(e *precedenceEnv) error {
			var ptrs []api.DevPtr
			if ptr != nil {
				ptrs = []api.DevPtr{ptr(e)}
			}
			return e.c.Launch(api.LaunchCall{Kernel: kernel, PtrArgs: ptrs})
		}
	}
	own := func(e *precedenceEnv) api.DevPtr { return e.own }
	interior := (*precedenceEnv).interior
	slack := (*precedenceEnv).slack
	foreign := func(e *precedenceEnv) api.DevPtr { return e.foreign }
	// past is an owned pointer whose transfer runs past the rounded end.
	const past = 300

	rows := []struct {
		name              string
		destroyed, failed bool
		call              func(e *precedenceEnv) error
		want              error
		hooks             hookCounts
	}{
		{name: "Malloc", call: func(e *precedenceEnv) error { _, err := e.c.Malloc(64); return err }, hooks: hookCounts{malloc: 1}},
		{name: "Malloc destroyed", destroyed: true, call: func(e *precedenceEnv) error { _, err := e.c.Malloc(64); return err }, want: api.ErrInvalidValue},
		{name: "Malloc failed device", failed: true, call: func(e *precedenceEnv) error { _, err := e.c.Malloc(64); return err }, want: api.ErrDeviceUnavailable},
		{name: "Malloc destroyed on failed device", destroyed: true, failed: true, call: func(e *precedenceEnv) error { _, err := e.c.Malloc(64); return err }, want: api.ErrInvalidValue},

		{name: "Free", call: func(e *precedenceEnv) error { _, err := e.c.Free(e.own); return err }},
		{name: "Free destroyed", destroyed: true, call: func(e *precedenceEnv) error { _, err := e.c.Free(e.own); return err }, want: api.ErrInvalidValue},
		{name: "Free foreign", call: func(e *precedenceEnv) error { _, err := e.c.Free(e.foreign); return err }, want: api.ErrInvalidDevicePointer},
		{name: "Free interior", call: func(e *precedenceEnv) error { _, err := e.c.Free(e.interior()); return err }, want: api.ErrInvalidDevicePointer},
		{name: "Free slack", call: func(e *precedenceEnv) error { _, err := e.c.Free(e.slack()); return err }, want: api.ErrInvalidDevicePointer},
		{name: "Free failed device", failed: true, call: func(e *precedenceEnv) error { _, err := e.c.Free(e.own); return err }, want: api.ErrDeviceUnavailable},
		{name: "Free foreign on failed device", failed: true, call: func(e *precedenceEnv) error { _, err := e.c.Free(e.foreign); return err }, want: api.ErrInvalidDevicePointer},
		{name: "Free foreign destroyed", destroyed: true, call: func(e *precedenceEnv) error { _, err := e.c.Free(e.foreign); return err }, want: api.ErrInvalidValue},

		{name: "MemcpyHD", call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.own, []byte{1}, 0) }, hooks: hookCounts{dma: 1}},
		{name: "MemcpyHD interior", call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.interior(), []byte{1}, 0) }, hooks: hookCounts{dma: 1}},
		{name: "MemcpyHD interior past the end", call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.interior(), nil, 256) }, want: api.ErrInvalidValue, hooks: hookCounts{dma: 1}},
		{name: "MemcpyHD slack", call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.slack(), []byte{1}, 0) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyHD foreign", call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.foreign, []byte{1}, 0) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyHD destroyed", destroyed: true, call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.own, []byte{1}, 0) }, want: api.ErrInvalidValue},
		{name: "MemcpyHD failed device", failed: true, call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.own, []byte{1}, 0) }, want: api.ErrDeviceUnavailable},
		{name: "MemcpyHD foreign on failed device", failed: true, call: func(e *precedenceEnv) error { return e.c.MemcpyHD(e.foreign, []byte{1}, 0) }, want: api.ErrInvalidDevicePointer},

		{name: "MemcpyDH", call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.own, 4); return err }, hooks: hookCounts{dma: 1}},
		{name: "MemcpyDH interior", call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.interior(), 4); return err }, hooks: hookCounts{dma: 1}},
		{name: "MemcpyDH interior past the end", call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.interior(), 256); return err }, want: api.ErrInvalidValue, hooks: hookCounts{dma: 1}},
		{name: "MemcpyDH slack", call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.slack(), 4); return err }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyDH foreign", call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.foreign, 4); return err }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyDH destroyed", destroyed: true, call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.own, 4); return err }, want: api.ErrInvalidValue},
		{name: "MemcpyDH failed device", failed: true, call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.own, 4); return err }, want: api.ErrDeviceUnavailable},
		{name: "MemcpyDH foreign on failed device", failed: true, call: func(e *precedenceEnv) error { _, err := e.c.MemcpyDH(e.foreign, 4); return err }, want: api.ErrInvalidDevicePointer},

		{name: "MemcpyHDBatch", call: func(e *precedenceEnv) error { return hd(e.own, e.interior())(e) }, hooks: hookCounts{dma: 2}},
		{name: "MemcpyHDBatch empty destroyed", destroyed: true, call: hd(), want: api.ErrInvalidValue},
		{name: "MemcpyHDBatch empty failed device", failed: true, call: hd(), want: api.ErrDeviceUnavailable},
		{name: "MemcpyHDBatch foreign second", call: func(e *precedenceEnv) error { return hd(e.own, e.foreign)(e) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyHDBatch slack second", call: func(e *precedenceEnv) error { return hd(e.own, e.slack())(e) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyHDBatch past the end then foreign", call: func(e *precedenceEnv) error {
			_, err := e.c.MemcpyHDBatch([]api.HDCopy{{Dst: e.own, Size: past}, {Dst: e.foreign, Size: 1}})
			return err
		}, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyHDBatch past the end second", call: func(e *precedenceEnv) error {
			_, err := e.c.MemcpyHDBatch([]api.HDCopy{{Dst: e.own, Size: 1}, {Dst: e.own, Size: past}, {Dst: e.own, Size: 1}})
			return err
		}, want: api.ErrInvalidValue, hooks: hookCounts{dma: 2}},
		{name: "MemcpyHDBatch destroyed", destroyed: true, call: func(e *precedenceEnv) error { return hd(e.own)(e) }, want: api.ErrInvalidValue},
		{name: "MemcpyHDBatch failed device", failed: true, call: func(e *precedenceEnv) error { return hd(e.own, e.interior())(e) }, want: api.ErrDeviceUnavailable},
		{name: "MemcpyHDBatch foreign on failed device", failed: true, call: func(e *precedenceEnv) error { return hd(e.own, e.foreign)(e) }, want: api.ErrInvalidDevicePointer},

		{name: "MemcpyDHBatch", call: func(e *precedenceEnv) error { return dh(e.own, e.interior())(e) }, hooks: hookCounts{dma: 2}},
		{name: "MemcpyDHBatch empty destroyed", destroyed: true, call: dh(), want: api.ErrInvalidValue},
		{name: "MemcpyDHBatch empty failed device", failed: true, call: dh(), want: api.ErrDeviceUnavailable},
		{name: "MemcpyDHBatch foreign second", call: func(e *precedenceEnv) error { return dh(e.own, e.foreign)(e) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyDHBatch slack second", call: func(e *precedenceEnv) error { return dh(e.own, e.slack())(e) }, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyDHBatch past the end then foreign", call: func(e *precedenceEnv) error {
			_, _, err := e.c.MemcpyDHBatch([]api.DHCopy{{Src: e.own, Size: past}, {Src: e.foreign, Size: 1}})
			return err
		}, want: api.ErrInvalidDevicePointer},
		{name: "MemcpyDHBatch past the end second", call: func(e *precedenceEnv) error {
			_, _, err := e.c.MemcpyDHBatch([]api.DHCopy{{Src: e.own, Size: 1}, {Src: e.own, Size: past}, {Src: e.own, Size: 1}})
			return err
		}, want: api.ErrInvalidValue, hooks: hookCounts{dma: 2}},
		{name: "MemcpyDHBatch destroyed", destroyed: true, call: func(e *precedenceEnv) error { return dh(e.own)(e) }, want: api.ErrInvalidValue},
		{name: "MemcpyDHBatch failed device", failed: true, call: func(e *precedenceEnv) error { return dh(e.own, e.interior())(e) }, want: api.ErrDeviceUnavailable},
		{name: "MemcpyDHBatch foreign on failed device", failed: true, call: func(e *precedenceEnv) error { return dh(e.own, e.foreign)(e) }, want: api.ErrInvalidDevicePointer},

		{name: "Launch", call: launch("k", own), hooks: hookCounts{exec: 1}},
		{name: "Launch no pointers", call: launch("k", nil), hooks: hookCounts{exec: 1}},
		{name: "Launch interior", call: launch("k", interior), hooks: hookCounts{exec: 1}},
		{name: "Launch slack", call: launch("k", slack), want: api.ErrInvalidDevicePointer},
		{name: "Launch foreign", call: launch("k", foreign), want: api.ErrInvalidDevicePointer},
		{name: "Launch destroyed", destroyed: true, call: launch("k", own), want: api.ErrInvalidValue},
		{name: "Launch unknown kernel destroyed", destroyed: true, call: launch("nope", own), want: api.ErrInvalidValue},
		{name: "Launch failed device", failed: true, call: launch("k", own), want: api.ErrDeviceUnavailable},
		{name: "Launch foreign on failed device", failed: true, call: launch("k", foreign), want: api.ErrInvalidDevicePointer},
		{name: "Launch unknown kernel", call: launch("nope", own), want: api.ErrNotRegistered},
		{name: "Launch unknown kernel foreign", call: launch("nope", foreign), want: api.ErrNotRegistered},
		{name: "Launch unknown kernel on failed device", failed: true, call: launch("nope", own), want: api.ErrNotRegistered},

		{name: "Synchronize", call: func(e *precedenceEnv) error { return e.c.Synchronize() }},
		{name: "Synchronize destroyed", destroyed: true, call: func(e *precedenceEnv) error { return e.c.Synchronize() }, want: api.ErrInvalidValue},
		{name: "Synchronize failed device", failed: true, call: func(e *precedenceEnv) error { return e.c.Synchronize() }, want: api.ErrDeviceUnavailable},
		{name: "Synchronize destroyed on failed device", destroyed: true, failed: true, call: func(e *precedenceEnv) error { return e.c.Synchronize() }, want: api.ErrInvalidValue},

		{name: "Destroy twice", call: func(e *precedenceEnv) error {
			e.c.Destroy()
			e.c.Destroy()
			if got := e.dev.Available(); got != e.availWithoutC {
				return fmt.Errorf("available %d after Destroy, %d before the context", got, e.availWithoutC)
			}
			if n := e.rt.ContextsOn(0); n != 1 {
				return fmt.Errorf("%d contexts on the device after Destroy, want 1", n)
			}
			return nil
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, armed := range []bool{true, false} {
				e, plane := newPrecedenceEnv(t, armed)
				if r.destroyed {
					e.c.Destroy()
				}
				if r.failed {
					e.dev.Fail()
				}
				var before hookCounts
				if armed {
					before = countHooks(plane)
				}
				err := r.call(e)
				if r.want == nil && err != nil || r.want != nil && !errors.Is(err, r.want) {
					t.Errorf("armed %v: err = %v, want %v", armed, err, r.want)
				}
				if !armed {
					continue
				}
				after := countHooks(plane)
				got := hookCounts{after.malloc - before.malloc, after.dma - before.dma, after.exec - before.exec}
				if got != r.hooks {
					t.Errorf("hooks consulted %+v, want %+v", got, r.hooks)
				}
			}
		})
	}
}
