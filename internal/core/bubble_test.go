//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package core

import (
	"errors"
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"gvrt/internal/api"
)

// TestDeviceReadmissionBubbled is TestDeviceReadmission in virtual time.
// At the tests' clock scale the health monitor's interval is below the
// sim clock's resolution floor, so it must still park between probes:
// a monitor that spins never lets the bubble's clock advance, and the
// device is never restored.
func TestDeviceReadmissionBubbled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The outcome leaves the bubble on a channel: the race detector sees
	// no edge from the bubble's goroutine to Run's return.
	out := make(chan error, 1)
	synctest.Run(func() {
		env := newEnv(t, Config{VGPUsPerDevice: 2}, smallSpec(1<<20, 1))
		out <- readmitAfterFailure(env)
		env.rt.Close()
		env.wg.Wait()
	})
	if err := <-out; err != nil {
		t.Fatal(err)
	}
}

// readmitAfterFailure fails the environment's only device under a
// session, restores it after 10 ms and waits, in the bubble's time, for
// the health monitor to re-admit it.
func readmitAfterFailure(env *testEnv) error {
	dev := env.crt.Device(0)
	c := env.client()
	defer c.Close()
	if err := c.RegisterFatBinary(testBinary()); err != nil {
		return err
	}
	p, err := c.Malloc(64)
	if err != nil {
		return err
	}
	inc := api.LaunchCall{Kernel: "inc", PtrArgs: []api.DevPtr{p}, Scalars: []uint64{1}}
	if err := c.Launch(inc); err != nil {
		return err
	}
	dev.Fail()
	if err := c.Launch(inc); err == nil {
		return errors.New("launch on a failed device succeeded")
	}
	time.Sleep(10 * time.Millisecond)
	if env.rt.Metrics().DeviceFailures == 0 {
		return errors.New("device failure never registered")
	}
	dev.Restore()
	for deadline := time.Now().Add(time.Second); env.rt.Metrics().Readmissions == 0; {
		if time.Now().After(deadline) {
			return errors.New("restored device never re-admitted")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
