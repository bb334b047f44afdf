package api

import (
	"slices"

	"gvrt/internal/ptx"
)

// AnnotateFromPTX returns fb with each kernel's UsesDynamicAlloc and
// UsesNestedPointers flags filled by analysing its PTX text, when
// present (§1: both properties "can be detected by intercepting and
// parsing the pseudo-assembly (PTX) representation of CUDA kernels").
// Flags already set by hand are never cleared. fb's kernels are never
// written: they are the caller's (a received call is immutable), so the
// first flag that changes clones them, and a binary whose flags all
// stand costs nothing.
func AnnotateFromPTX(fb FatBinary) FatBinary {
	cloned := false
	for i, k := range fb.Kernels {
		if k.PTX == "" {
			continue
		}
		a := ptx.Analyze(k.PTX)
		dyn, nested := k.UsesDynamicAlloc || a.UsesDynamicAlloc, k.UsesNestedPointers || a.UsesNestedPointers
		if dyn == k.UsesDynamicAlloc && nested == k.UsesNestedPointers {
			continue
		}
		if !cloned {
			fb.Kernels, cloned = slices.Clone(fb.Kernels), true
		}
		fb.Kernels[i].UsesDynamicAlloc, fb.Kernels[i].UsesNestedPointers = dyn, nested
	}
	return fb
}
