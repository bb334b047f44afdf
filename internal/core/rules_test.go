package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/faultinject"
	"gvrt/internal/frontend"
	"gvrt/internal/trace"
	"gvrt/internal/transport"
)

// This file holds one deterministic test per rule core keeps in one
// place (DESIGN.md "Where each rule lives"): vacate, the kernel attempt
// step, the pointer door, the range predicate and the install door. Each
// fails — or takes the process down — at the commit before the rule had
// a single home.

// session is a client whose dispatcher the test can wait out, with the
// runtime-side context it is served by.
type session struct {
	*frontend.Client
	conn transport.Conn // the same connection, for calls no client would make
	ctx  *Context
	done chan struct{} // closed once the context is torn down
}

func (e *testEnv) session(t *testing.T) *session {
	t.Helper()
	c, s := transport.Pipe()
	done := make(chan struct{})
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer close(done)
		e.rt.Serve(s)
	}()
	cl := frontend.Connect(c)
	t.Cleanup(func() { cl.Close() })
	if err := cl.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	id, err := cl.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	e.rt.mu.Lock()
	ctx := e.rt.ctxs[id]
	e.rt.mu.Unlock()
	return &session{Client: cl, conn: c, ctx: ctx, done: done}
}

// device reports the index of the device the session is bound to.
func (s *session) device(t *testing.T) int {
	t.Helper()
	v := s.ctx.vgpu.Load()
	if v == nil {
		t.Fatal("session is not bound")
	}
	return v.ds.index
}

func (s *session) inc(t *testing.T, p api.DevPtr) {
	t.Helper()
	if err := s.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
}

func (s *session) byte0(t *testing.T, p api.DevPtr) byte {
	t.Helper()
	out, err := s.MemcpyDH(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// buffer allocates size bytes whose first byte is b0.
func (s *session) buffer(t *testing.T, size uint64, b0 byte) api.DevPtr {
	t.Helper()
	p, err := s.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MemcpyHD(p, []byte{b0}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRemoveDeviceAfterDeathKeepsAckedKernel: a device that has just
// died is drained before anything noticed. The flush fails, so the swap
// image is not a checkpoint and the acknowledged kernel must stay in the
// log to be replayed; the old RemoveDevice cleared the log regardless
// and the client read the pre-kernel byte back with Success.
func TestRemoveDeviceAfterDeathKeepsAckedKernel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drain func(*Runtime, int) error
	}{
		{"RemoveDevice", (*Runtime).RemoveDevice},
		{"DrainDevice", (*Runtime).DrainDevice},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, Config{}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
			s := env.session(t)
			p := s.buffer(t, 16, 50)
			s.inc(t, p)
			dev := s.device(t)
			env.rt.deviceList()[dev].dev.Fail()
			if err := tc.drain(env.rt, dev); err != nil {
				t.Fatal(err)
			}
			if got := s.byte0(t, p); got != 51 {
				t.Errorf("byte 0 = %d after draining a dead device, want 51: an acknowledged kernel was lost", got)
			}
			if m := env.rt.Metrics(); m.Replays != 1 {
				t.Errorf("Replays = %d, want 1", m.Replays)
			}
		})
	}
}

// TestVacateFailureDropsNothing: a launch that cannot get memory
// vacates, and the swap area refuses a write in the middle of the flush.
// One entry had already left the device, the dirty one had not. Nothing
// may be dropped: the kernel's output is still read back, the error
// reaches the client, and the device gets every byte back at exit. The
// old unbindSelf invalidated the residency of a healthy device (stranding
// the allocation) and cleared the log (losing the kernel).
func TestVacateFailureDropsNothing(t *testing.T) {
	plane := faultinject.New(faultinject.Plan{Name: "swap-write", Rules: []faultinject.Rule{
		// Writes 1–3 are the host copies below; 4 is the flush of dirty.
		{Point: faultinject.PointSwapWrite, AtNth: 4, Action: faultinject.ActError},
	}})
	env := newEnv(t, Config{Faults: plane}, smallSpec(1<<20, 1))
	dev := env.rt.deviceList()[0].dev
	start := dev.Available()

	s := env.session(t)
	clean := s.buffer(t, 100<<10, 5) // lower address: flushed first
	dirty := s.buffer(t, 100<<10, 10)
	big := s.buffer(t, 300<<10, 20)
	if err := s.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{dirty, clean},
		Scalars: []uint64{1}, ReadOnly: []bool{false, true}}); err != nil {
		t.Fatal(err)
	}
	// Leave too little for big, and reference every entry so there is no
	// intra-application victim: the launch must vacate.
	ballast, err := dev.Malloc(dev.Available() - 100<<10)
	if err != nil {
		t.Fatal(err)
	}
	launched := make(chan error, 1)
	go func() {
		launched <- s.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{big, dirty, clean}, Scalars: []uint64{1}})
	}()
	// The old code retried for ever instead of reporting the failure:
	// give it the memory once it has done its damage, so it ends.
	var lerr error
	for waiting := true; waiting; {
		select {
		case lerr = <-launched:
			waiting = false
		case <-time.After(100 * time.Microsecond):
			if env.rt.Metrics().UnbindRetries > 0 && ballast != 0 {
				_ = dev.Free(ballast)
				ballast = 0
			}
		}
	}
	if !errors.Is(lerr, api.ErrSwapAllocation) {
		t.Errorf("launch whose vacate failed returned %v, want the swap area's error", lerr)
	}
	if ballast != 0 {
		_ = dev.Free(ballast)
	}
	if len(plane.Schedule()) != 1 {
		t.Fatalf("fault schedule %v: the flush was not interrupted as planned", plane.Schedule())
	}
	if got := s.byte0(t, dirty); got != 11 {
		t.Errorf("dirty byte 0 = %d, want 11: the failed vacate dropped a kernel", got)
	}
	if got := s.byte0(t, clean); got != 5 {
		t.Errorf("clean byte 0 = %d, want 5", got)
	}
	s.inc(t, big)
	if got := s.byte0(t, big); got != 21 {
		t.Errorf("big byte 0 = %d, want 21", got)
	}
	s.Close()
	<-s.done
	if got := dev.Available(); got != start {
		t.Errorf("device has %d bytes available after exit, %d before the session: %d stranded", got, start, start-got)
	}
}

// fullDevice is the geometry of the recovery tests: two 1 MiB devices,
// the co-tenant's 700 KiB resident on one and its service lock held by
// the test (so an inter-application swap request is refused, §4.5), the
// session under test bound to the other.
func fullDevice(t *testing.T, cfg Config) (env *testEnv, s, cotenant *session, hog api.DevPtr) {
	t.Helper()
	cfg.VGPUsPerDevice, cfg.MinVictimIdle = 2, -1
	env = newEnv(t, cfg, smallSpec(1<<20, 1), smallSpec(1<<20, 1))
	cotenant = env.session(t)
	hog, err := cotenant.Malloc(700 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := cotenant.Launch(api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{hog}}); err != nil {
		t.Fatal(err)
	}
	return env, env.session(t), cotenant, hog
}

// untilRetry starts call on its own goroutine and returns once the
// runtime has counted a memory retry — or call has returned: the old
// code gave up instead of retrying. call's error arrives on the channel.
func untilRetry(env *testEnv, call func() error) chan error {
	done := make(chan error, 1)
	go func() { done <- call() }()
	for env.rt.Metrics().UnbindRetries == 0 {
		select {
		case err := <-done:
			done <- err
			return done
		case <-time.After(100 * time.Microsecond):
		}
	}
	return done
}

// TestRecoveryRidesOutFullDevice: the device dies, and the only one left
// is full of a co-tenant that is mid-call. The replay must do what a
// launch does — vacate, back off, retry — until the co-tenant reaches a
// CPU phase; the old replay loop handed "cuda: out of memory" to the
// client (the soak's symptom (a)), from a launch and from a read alike.
func TestRecoveryRidesOutFullDevice(t *testing.T) {
	const logged = 3
	for _, trigger := range []string{"launch", "memcpyDH"} {
		t.Run(trigger, func(t *testing.T) {
			env, s, cotenant, hog := fullDevice(t, Config{})
			p := s.buffer(t, 600<<10, 40)
			for i := 0; i < logged; i++ {
				s.inc(t, p)
			}
			if s.device(t) == cotenant.device(t) {
				t.Fatal("setup: both sessions landed on one device")
			}
			cotenant.ctx.mu.Lock()
			env.rt.FailDevice(s.device(t))

			want := byte(40 + logged)
			call := func() error { _, err := s.MemcpyDH(p, 1); return err }
			if trigger == "launch" {
				want++
				call = func() error {
					return s.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}})
				}
			}
			done := untilRetry(env, call)
			cotenant.ctx.mu.Unlock()
			if err := <-done; err != nil {
				t.Fatalf("%s over a recovery that met a full device: %v", trigger, err)
			}
			if got := s.byte0(t, p); got != want {
				t.Errorf("byte 0 = %d, want %d: every kernel exactly once", got, want)
			}
			m := env.rt.Metrics()
			if m.Replays != logged || m.UnbindRetries == 0 {
				t.Errorf("Replays = %d (log held %d), UnbindRetries = %d", m.Replays, logged, m.UnbindRetries)
			}
			if err := cotenant.Launch(api.LaunchCall{Kernel: "noop", PtrArgs: []api.DevPtr{hog}}); err != nil {
				t.Errorf("co-tenant after its lock was released: %v", err)
			}
		})
	}
}

// TestVacateMidReplayKeepsTheTail: a recovery replays three of its four
// logged kernels, cannot fit the fourth and vacates — the swap image now
// reflects exactly those three, so exactly the fourth stays logged — and
// then the device it retries on dies as well. Clearing the log at the
// vacate would lose the fourth kernel, keeping all of it would apply the
// first three twice.
func TestVacateMidReplayKeepsTheTail(t *testing.T) {
	var env *testEnv
	var armed atomic.Bool
	var replaying, first atomic.Int64
	// The injection point is the bind event, as in
	// TestBindingLostBeforeUse: OnEvent runs inside onBind, after the
	// binding is published and before it is used. The device the retry
	// binds dies under it, and the one that died first comes back to
	// take the recovery.
	onEvent := func(e trace.Event) {
		if e.Kind != trace.KindBind || e.Ctx != replaying.Load() || !armed.CompareAndSwap(true, false) {
			return
		}
		env.rt.FailDevice(e.Device)
		if err := env.rt.ReadmitDevice(int(first.Load())); err != nil {
			t.Error(err)
		}
	}
	var s, cotenant *session
	env, s, cotenant, _ = fullDevice(t, Config{OnEvent: onEvent})
	replaying.Store(s.ctx.id)
	small := s.buffer(t, 16, 10)
	large := s.buffer(t, 600<<10, 20)
	for i := 0; i < 3; i++ {
		s.inc(t, small)
	}
	s.inc(t, large)
	first.Store(int64(s.device(t)))
	if s.device(t) == cotenant.device(t) {
		t.Fatal("setup: both sessions landed on one device")
	}
	cotenant.ctx.mu.Lock() // mid-call for as long as its device lives
	defer cotenant.ctx.mu.Unlock()
	env.rt.FailDevice(s.device(t))

	done := untilRetry(env, func() error { _, err := s.MemcpyDH(small, 1); return err })
	armed.Store(true) // the replay has vacated: its next binding dies
	if err := <-done; err != nil {
		t.Fatalf("read over a twice-failed recovery: %v", err)
	}
	if got := s.byte0(t, small); got != 13 {
		t.Errorf("small byte 0 = %d, want 13", got)
	}
	if got := s.byte0(t, large); got != 21 {
		t.Errorf("large byte 0 = %d, want 21", got)
	}
	if m := env.rt.Metrics(); m.Replays != 4 || m.DeviceFailures != 2 {
		t.Errorf("Replays = %d, DeviceFailures = %d; want 4 kernels replayed once each over 2 failures", m.Replays, m.DeviceFailures)
	}
}

// pointerCalls builds, for every api.Call that carries device pointers,
// a call the attacker could legitimately make with two buffers of its
// own. TestPointerDoorEveryCall fails when a Call type with a DevPtr or
// []DevPtr field is missing here.
var pointerCalls = map[string]func(a, b api.DevPtr) api.Call{
	"FreeCall":     func(a, _ api.DevPtr) api.Call { return api.FreeCall{Ptr: a} },
	"MemsetCall":   func(a, _ api.DevPtr) api.Call { return api.MemsetCall{Dst: a, Value: 0xEE, Size: 8} },
	"MemcpyHDCall": func(a, _ api.DevPtr) api.Call { return api.MemcpyHDCall{Dst: a, Data: []byte{0xEE, 0xEE}} },
	"MemcpyDHCall": func(a, _ api.DevPtr) api.Call { return api.MemcpyDHCall{Src: a, Size: 8} },
	"MemcpyDDCall": func(a, b api.DevPtr) api.Call { return api.MemcpyDDCall{Dst: a, Src: b, Size: 8} },
	"LaunchCall": func(a, b api.DevPtr) api.Call {
		return api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{a, b}, Scalars: []uint64{8}}
	},
	"RegisterNestedCall": func(a, b api.DevPtr) api.Call {
		return api.RegisterNestedCall{Parent: a, Members: []api.DevPtr{b}, Offsets: []uint64{0}}
	},
}

// baseOnly names the pointer fields that must hold an allocation's base.
var baseOnly = map[string]bool{"FreeCall.Ptr": true, "RegisterNestedCall.Parent": true}

// pointerCallTypes parses internal/api for every type with a CallName
// method and a field of type DevPtr or []DevPtr.
func pointerCallTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), "../api", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isCall, hasPtr := map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Name.Name == "CallName" && n.Recv != nil && len(n.Recv.List) == 1 {
						if id, ok := n.Recv.List[0].Type.(*ast.Ident); ok {
							isCall[id.Name] = true
						}
					}
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						break
					}
					for _, f := range st.Fields.List {
						typ := f.Type
						if arr, ok := typ.(*ast.ArrayType); ok {
							typ = arr.Elt
						}
						if id, ok := typ.(*ast.Ident); ok && id.Name == "DevPtr" {
							hasPtr[n.Name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	var names []string
	for name := range hasPtr {
		if isCall[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TestPointerDoorEveryCall sends every pointer-carrying call with, in
// each pointer position in turn, another context's live pointer, a freed
// pointer and — where a base is required — an interior one. Each must be
// refused with ErrInvalidDevicePointer and counted, and nobody's bytes
// may change.
func TestPointerDoorEveryCall(t *testing.T) {
	types := pointerCallTypes(t)
	var have []string
	for name := range pointerCalls {
		have = append(have, name)
	}
	sort.Strings(have)
	if !slices.Equal(types, have) {
		t.Fatalf("calls carrying device pointers: %v\npointerCalls covers: %v", types, have)
	}

	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	victim, attacker := env.session(t), env.session(t)
	vp := victim.buffer(t, 64, 7)
	victim.inc(t, vp) // resident and dirty: the bytes live on the device
	a, b := attacker.buffer(t, 64, 1), attacker.buffer(t, 64, 2)
	freed := attacker.buffer(t, 64, 3)
	if err := attacker.Free(freed); err != nil {
		t.Fatal(err)
	}

	for _, name := range types {
		good := reflect.ValueOf(pointerCalls[name](a, b))
		for i := 0; i < good.NumField(); i++ {
			field := name + "." + good.Type().Field(i).Name
			slots := 0
			switch good.Field(i).Interface().(type) {
			case api.DevPtr:
				slots = 1
			case []api.DevPtr:
				slots = good.Field(i).Len()
			}
			for k := 0; k < slots; k++ {
				bad := map[string]api.DevPtr{"foreign": vp, "foreign interior": vp + 8, "freed": freed}
				if baseOnly[field] {
					bad["interior"] = a + 8
				}
				for kind, ptr := range bad {
					call := reflect.New(good.Type()).Elem()
					call.Set(good)
					if f := call.Field(i); f.Kind() == reflect.Slice {
						f.Set(reflect.AppendSlice(reflect.Zero(f.Type()), f)) // not the template's array
						f.Index(k).Set(reflect.ValueOf(ptr))
					} else {
						f.Set(reflect.ValueOf(ptr))
					}
					before := env.rt.Metrics().Memory.BadOpsRejected
					r, err := attacker.conn.Call(call.Interface().(api.Call))
					if err != nil {
						t.Fatal(err)
					}
					if r.Code != api.ErrInvalidDevicePointer {
						t.Errorf("%s[%d] = %s pointer: code %v, want ErrInvalidDevicePointer", field, k, kind, r.Code)
					}
					if after := env.rt.Metrics().Memory.BadOpsRejected; after <= before {
						t.Errorf("%s[%d] = %s pointer: refusal not counted in BadOpsRejected", field, k, kind)
					}
				}
			}
		}
	}
	if got := victim.byte0(t, vp); got != 8 {
		t.Errorf("victim byte 0 = %d, want 8", got)
	}
	if ga, gb := attacker.byte0(t, a), attacker.byte0(t, b); ga != 1 || gb != 2 {
		t.Errorf("attacker's own buffers read %d, %d after refused calls; want 1, 2", ga, gb)
	}
}

// TestWrappedRangesRefused drives every call that takes an offset or a
// size through handle with values chosen so that off+size wraps. Each
// answer must be the one 128-bit arithmetic gives — Success inside the
// allocation, a typed error outside — and the runtime must still be
// there afterwards: MemcpyDH(p+16, 2^64−8) used to pass the bounds check
// and take the daemon down in make([]byte, size).
func TestWrappedRangesRefused(t *testing.T) {
	const limit = 64
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	s := env.session(t)
	p, q, parent := s.buffer(t, limit, 1), s.buffer(t, limit, 2), s.buffer(t, limit, 3)
	edge := []uint64{0, 1, limit, limit + 1, 1 << 63, 1<<64 - 8, 1<<64 - 1}
	send := func(inside bool, call api.Call) {
		t.Helper()
		r, err := s.conn.Call(call)
		if err != nil {
			t.Fatalf("%#v: %v", call, err)
		}
		typed := r.Code == api.ErrInvalidDevicePointer || r.Code == api.ErrInvalidValue || r.Code == api.ErrSizeMismatch
		if inside != (r.Code == api.Success) || !inside && !typed {
			t.Errorf("%#v: code %v, inside the allocation: %v", call, r.Code, inside)
		}
	}
	for _, off := range edge {
		for _, size := range edge {
			inside := off < limit && size <= limit-off
			send(inside, api.MemcpyHDCall{Dst: p + api.DevPtr(off), Size: size})
			send(inside, api.MemcpyDHCall{Src: p + api.DevPtr(off), Size: size})
			send(inside, api.MemcpyDDCall{Dst: q, Src: p + api.DevPtr(off), Size: size})
			send(inside, api.MemsetCall{Dst: p + api.DevPtr(off), Value: 1, Size: size})
		}
		// A nested member's pointer word: an offset and a fixed extent.
		send(off <= limit-8, api.RegisterNestedCall{Parent: parent, Members: []api.DevPtr{q}, Offsets: []uint64{off}})
	}
	// The same runtime serves a normal session afterwards.
	x := s.buffer(t, 16, 1)
	s.inc(t, x)
	if got := s.byte0(t, x); got != 2 {
		t.Fatalf("session after the hostile sizes: byte 0 = %d, want 2", got)
	}
}

// TestOneInstallDoor: an image supplied by a disk or a peer is admitted
// in one place. In non-test core, the call that imports a page table and
// the assignment that marks a session orphaned each occur once, in
// session.go (adoptImage).
func TestOneInstallDoor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`\bImportContext\(`),
		regexp.MustCompile(`\borphans\[\w+\] = `),
	} {
		var where []string
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for range re.FindAll(src, -1) {
				where = append(where, f)
			}
		}
		if !slices.Equal(where, []string{"session.go"}) {
			t.Errorf("%v occurs in %v, want once, in session.go", re, where)
		}
	}
}
