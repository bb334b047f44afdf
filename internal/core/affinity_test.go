package core

import (
	"testing"
	"time"

	"gvrt/internal/api"
	"gvrt/internal/frontend"
	"gvrt/internal/sched"
)

// TestAppAffinityBindsSiblingsTogether exercises the §4.8 CUDA 4.0
// compatibility: threads announcing the same application identifier are
// bound to the same physical device, even when another device has free
// virtual GPUs.
func TestAppAffinityBindsSiblingsTogether(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))

	launch := func(c *frontend.Client) error {
		p, err := c.Malloc(64)
		if err != nil {
			return err
		}
		return c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}})
	}

	var clients []*frontend.Client
	for i := 0; i < 2; i++ {
		c := env.client()
		clients = append(clients, c)
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
		if err := c.SetAppID("app-shared"); err != nil {
			t.Fatal(err)
		}
		if err := launch(c); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// Both siblings must be on the same device, despite the balanced
	// policy otherwise spreading load across devices.
	devices := map[int]int{}
	for _, ds := range env.rt.deviceList() {
		if n := ds.activeVGPUs(); n > 0 {
			devices[ds.index] += n
		}
	}
	if len(devices) != 1 {
		t.Errorf("siblings spread over %d devices (%v), want 1", len(devices), devices)
	}

	// A third, unrelated context lands on the other (empty) device.
	other := env.client()
	defer other.Close()
	if err := other.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := launch(other); err != nil {
		t.Fatal(err)
	}
	spread := map[int]int{}
	for _, ds := range env.rt.deviceList() {
		if n := ds.activeVGPUs(); n > 0 {
			spread[ds.index] += n
		}
	}
	if len(spread) != 2 {
		t.Errorf("with an unrelated third app, bound devices = %v, want both devices used", spread)
	}
}

// TestAppAffinityWaitsForSiblingDevice: a sibling waits for its
// application's device rather than binding to a free one elsewhere.
func TestAppAffinityWaitsForSiblingDevice(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1}, smallSpec(1<<20, 1), smallSpec(1<<20, 1))

	a := env.client()
	defer a.Close()
	if err := a.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAppID("app-x"); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Malloc(64)
	if err := a.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pa}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	// Device 0's single vGPU now belongs to app-x; device 1 is free.

	b := env.client()
	defer b.Close()
	if err := b.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetAppID("app-x"); err != nil {
		t.Fatal(err)
	}
	pb, _ := b.Malloc(64)
	done := make(chan error, 1)
	go func() {
		done <- b.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{pb}, Scalars: []uint64{0}})
	}()

	// b must queue (device 1 is free but off-limits).
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.QueueDepth() != 1 {
		t.Fatalf("QueueDepth = %d, want 1 (sibling must wait for its device)", env.rt.QueueDepth())
	}

	// When a exits, b takes the freed slot on the same device.
	a.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling never bound after its device freed")
	}
}

// TestSJFPolicyIntegration drives the runtime with the SJF policy and
// checks the waiting-list pick prefers the shorter pending kernel.
func TestSJFPolicyIntegration(t *testing.T) {
	env := newEnv(t, Config{VGPUsPerDevice: 1, Policy: sched.ShortestJobFirst{}}, smallSpec(1<<20, 1))

	// Occupy the single vGPU with a long kernel.
	hog := env.client()
	if err := hog.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	ph, _ := hog.Malloc(64)
	if err := hog.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{ph}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}

	// Two waiters: slowJob queued first, fastJob second.
	mkWaiter := func(kernel string) (chan error, *frontend.Client) {
		c := env.client()
		if err := c.RegisterFatBinary(testBinary()); err != nil {
			t.Fatal(err)
		}
		p, _ := c.Malloc(64)
		ch := make(chan error, 1)
		go func() {
			ch <- c.Launch(api.LaunchCall{Kernel: kernel, PtrArgs: []api.DevPtr{p}, Scalars: []uint64{0}})
		}()
		return ch, c
	}
	slowDone, slowC := mkWaiter("slow")
	deadline := time.Now().Add(5 * time.Second)
	for env.rt.QueueDepth() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fastDone, fastC := mkWaiter("inc")
	for env.rt.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if env.rt.QueueDepth() != 2 {
		t.Fatalf("QueueDepth = %d, want 2", env.rt.QueueDepth())
	}

	// Free the vGPU: SJF must pick the fast job despite its later
	// arrival.
	hog.Close()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast job never ran")
	}
	// Binding is held until exit; release the fast job's vGPU so the
	// slow waiter can run.
	fastC.Close()
	defer slowC.Close()
	select {
	case <-slowDone:
		// The slow job eventually runs too, after the fast one. Its
		// kernel is 10 model seconds, instant at this clock scale.
	case <-time.After(10 * time.Second):
		t.Fatal("slow job never ran")
	}
}

// TestNestedRegistrationThroughAPI covers the RegisterNested call path
// end to end: parent embeds a member pointer, the kernel sees the
// member's device bytes through the patched pointer.
func TestNestedRegistrationThroughAPI(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	member, err := c.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := c.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyHD(member, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 16)
	for i := 0; i < 8; i++ {
		img[8+i] = byte(uint64(member) >> (8 * i))
	}
	if err := c.MemcpyHD(parent, img); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterNested(parent, []api.DevPtr{member}, []uint64{8}); err != nil {
		t.Fatal(err)
	}
	// Launch over the parent: the member must become resident too.
	if err := c.Launch(api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{parent}, Scalars: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	// Bad registrations are rejected.
	if err := c.RegisterNested(parent, []api.DevPtr{member}, []uint64{12}); err == nil {
		t.Error("offset without room for a pointer should fail")
	}
	if err := c.RegisterNested(0xbad, []api.DevPtr{member}, []uint64{0}); err == nil {
		t.Error("wild parent pointer should fail")
	}
}

// TestMemcpyDDThroughAPI covers device-to-device copies across
// residency states.
func TestMemcpyDDThroughAPI(t *testing.T) {
	env := newEnv(t, Config{}, smallSpec(1<<20, 1))
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		t.Fatal(err)
	}
	src, _ := c.Malloc(16)
	dst, _ := c.Malloc(16)
	if err := c.MemcpyHD(src, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyDD(dst, src, 3); err != nil {
		t.Fatal(err)
	}
	out, err := c.MemcpyDH(dst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Errorf("MemcpyDD result = %v", out)
	}
	if err := c.MemcpyDD(dst, src, 64); err == nil {
		t.Error("oversized MemcpyDD should fail")
	}
}
