//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package exp

import (
	"runtime"
	"testing"
	"testing/synctest"
)

// TestFig7ShapeBubbled is TestFig7Shape in virtual time: inside a
// synctest bubble the clock advances only while every goroutine is
// blocked, so the corners are a function of the inputs alone and are
// pinned exactly.
func TestFig7ShapeBubbled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The result leaves the bubble on a channel: the race detector sees
	// no edge from the bubble's goroutine to Run's return.
	out := make(chan fig7Corners, 1)
	synctest.Run(func() {
		c, err := measureFig7Corners()
		if err != nil {
			t.Error(err)
		}
		out <- c
	})
	c := <-out
	if t.Failed() {
		return
	}
	checkFig7Shape(t, c)
	if want := (fig7Corners{159.76875, 449.3778, 151.95415, 211.95415}); c != want {
		t.Errorf("corners = %+v, want %+v", c, want)
	}
}
