//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package cluster

import (
	"runtime"
	"testing"
	"testing/synctest"
	"time"

	"gvrt/internal/workload"
)

// TestClusterResultSanityBubbled is TestClusterResultSanity in virtual
// time: inside a synctest bubble the clock advances only while every
// goroutine is blocked, so the run's model time is a function of its
// inputs alone and the total is pinned exactly.
func TestClusterResultSanityBubbled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The result leaves the bubble on a channel: the race detector sees
	// no edge from the bubble's goroutine to Run's return.
	out := make(chan workload.BatchResult, 1)
	synctest.Run(func() {
		res, err := obliviousRun()
		if err != nil {
			t.Error(err)
		}
		out <- res
	})
	res := <-out
	if t.Failed() {
		return
	}
	checkClusterResult(t, res)
	if want := 4502920 * time.Microsecond; res.Total != want {
		t.Errorf("Total = %v, want %v", res.Total, want)
	}
}
