package api

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestErrorStringsAndErr(t *testing.T) {
	if Success.Err() != nil {
		t.Error("Success.Err() should be nil")
	}
	if err := ErrMemoryAllocation.Err(); err == nil || err.Error() != "cuda: out of memory" {
		t.Errorf("ErrMemoryAllocation.Err() = %v", err)
	}
	if s := Error(9999).Error(); s == "" {
		t.Error("unknown error code should still produce a message")
	}
	for code := Success; code <= ErrConnectionClosed; code++ {
		if _, ok := errNames[code]; !ok {
			t.Errorf("error code %d has no name", code)
		}
	}
}

func TestCode(t *testing.T) {
	if Code(nil) != Success {
		t.Error("Code(nil) != Success")
	}
	if Code(ErrInvalidValue) != ErrInvalidValue {
		t.Error("Code should pass through api.Error")
	}
	if Code(errors.New("boom")) != ErrLaunchFailure {
		t.Error("Code should map foreign errors to ErrLaunchFailure")
	}
}

func TestDim3Threads(t *testing.T) {
	tests := []struct {
		d    Dim3
		want uint64
	}{
		{Dim3{}, 1},
		{Dim3{X: 4}, 4},
		{Dim3{X: 4, Y: 2}, 8},
		{Dim3{X: 4, Y: 2, Z: 3}, 24},
		{Dim3{X: 0, Y: 5}, 5},
	}
	for _, tt := range tests {
		if got := tt.d.Threads(); got != tt.want {
			t.Errorf("%+v.Threads() = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestLaunchCallLaunches(t *testing.T) {
	if (LaunchCall{}).Launches() != 1 {
		t.Error("zero Repeat should mean one launch")
	}
	if (LaunchCall{Repeat: -3}).Launches() != 1 {
		t.Error("negative Repeat should mean one launch")
	}
	if (LaunchCall{Repeat: 17}).Launches() != 17 {
		t.Error("Repeat=17 should mean 17 launches")
	}
}

func TestKernelImplRegistry(t *testing.T) {
	called := false
	RegisterKernelImpl("binX", "vecadd", func(mem KernelMemory, scalars []uint64) error {
		called = true
		return nil
	})
	defer RegisterKernelImpl("binX", "vecadd", nil)

	fn, ok := KernelImpl("binX", "vecadd")
	if !ok {
		t.Fatal("registered kernel impl not found")
	}
	if err := fn(nil, nil); err != nil || !called {
		t.Error("impl did not run")
	}
	if _, ok := KernelImpl("binX", "other"); ok {
		t.Error("unregistered kernel impl reported found")
	}
	RegisterKernelImpl("binX", "vecadd", nil)
	if _, ok := KernelImpl("binX", "vecadd"); ok {
		t.Error("nil registration should remove the impl")
	}
}

func TestFindKernel(t *testing.T) {
	fb := FatBinary{ID: "b", Kernels: []KernelMeta{{Name: "a"}, {Name: "b", BaseTime: time.Second}}}
	k, err := fb.FindKernel("b")
	if err != nil || k.BaseTime != time.Second {
		t.Errorf("FindKernel(b) = %+v, %v", k, err)
	}
	if _, err := fb.FindKernel("zzz"); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("FindKernel(zzz) err = %v, want ErrNotRegistered", err)
	}
}

func TestAnnotateFromPTX(t *testing.T) {
	in := FatBinary{ID: "b", Kernels: []KernelMeta{
		{Name: "plain", PTX: "ld.global.f32 %f1, [%rd1];"},
		{Name: "alloc", PTX: "call.uni (r), malloc, (%rd1);"},
		{Name: "nested", PTX: "ld.global.u64 %rd2, [%rd1];\nld.global.u32 %r1, [%rd2];"},
		{Name: "preset", UsesDynamicAlloc: true}, // no PTX: flag kept
	}}
	orig := slices.Clone(in.Kernels)
	fb := AnnotateFromPTX(in)
	if !slices.Equal(in.Kernels, orig) {
		t.Error("AnnotateFromPTX wrote into its argument's kernels")
	}
	if same := AnnotateFromPTX(FatBinary{Kernels: in.Kernels[:1]}); &same.Kernels[0] != &in.Kernels[0] {
		t.Error("a binary whose flags all stand was cloned")
	}
	if fb.Kernels[0].UsesDynamicAlloc || fb.Kernels[0].UsesNestedPointers {
		t.Error("plain kernel mis-annotated")
	}
	if !fb.Kernels[1].UsesDynamicAlloc {
		t.Error("malloc call not annotated")
	}
	if !fb.Kernels[2].UsesNestedPointers {
		t.Error("nested loads not annotated")
	}
	if !fb.Kernels[3].UsesDynamicAlloc {
		t.Error("hand-set flag lost")
	}
}
