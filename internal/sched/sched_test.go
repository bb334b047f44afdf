package sched

import (
	"testing"
	"time"
)

func TestFCFSPickWaiter(t *testing.T) {
	ws := []Waiter{
		{CtxID: 1, Arrived: 30 * time.Second},
		{CtxID: 2, Arrived: 10 * time.Second},
		{CtxID: 3, Arrived: 20 * time.Second},
	}
	if got := (FCFS{}).PickWaiter(ws); got != 1 {
		t.Errorf("FCFS picked index %d, want 1 (earliest arrival)", got)
	}
}

func TestSJFPickWaiter(t *testing.T) {
	ws := []Waiter{
		{CtxID: 1, Arrived: 1, NextKernelTime: 30 * time.Second},
		{CtxID: 2, Arrived: 2, NextKernelTime: 5 * time.Second},
		{CtxID: 3, Arrived: 3, NextKernelTime: 20 * time.Second},
	}
	if got := (ShortestJobFirst{}).PickWaiter(ws); got != 1 {
		t.Errorf("SJF picked index %d, want 1 (shortest kernel)", got)
	}
	// Tie broken by arrival.
	ws[0].NextKernelTime = 5 * time.Second
	if got := (ShortestJobFirst{}).PickWaiter(ws); got != 0 {
		t.Errorf("SJF tie-break picked %d, want 0", got)
	}
}

func TestCreditPickWaiter(t *testing.T) {
	ws := []Waiter{
		{CtxID: 1, Arrived: 1, ConsumedGPUTime: 90 * time.Second},
		{CtxID: 2, Arrived: 2, ConsumedGPUTime: 10 * time.Second},
		{CtxID: 3, Arrived: 3, ConsumedGPUTime: 50 * time.Second},
	}
	if got := (CreditBased{}).PickWaiter(ws); got != 1 {
		t.Errorf("credit picked index %d, want 1 (least consumed)", got)
	}
	ws[2].ConsumedGPUTime = 10 * time.Second
	if got := (CreditBased{}).PickWaiter(ws); got != 1 {
		t.Errorf("credit tie-break picked %d, want 1 (earlier arrival)", got)
	}
}

func TestPickDevicePrefersMemoryFit(t *testing.T) {
	devs := []DeviceLoad{
		{Index: 0, Speed: 1.0, FreeVGPUs: 2, ActiveVGPUs: 0, MemAvailable: 1 << 20},
		{Index: 1, Speed: 0.5, FreeVGPUs: 2, ActiveVGPUs: 3, MemAvailable: 1 << 30},
	}
	w := Waiter{MemDemand: 1 << 25}
	if got := (FCFS{}).PickDevice(w, devs); got != 1 {
		t.Errorf("PickDevice = %d, want 1 (only device with room)", got)
	}
}

func TestPickDeviceBalancesActiveVGPUs(t *testing.T) {
	devs := []DeviceLoad{
		{Index: 0, Speed: 1.0, ActiveVGPUs: 3, MemAvailable: 1 << 30},
		{Index: 1, Speed: 0.4, ActiveVGPUs: 1, MemAvailable: 1 << 30},
		{Index: 2, Speed: 1.0, ActiveVGPUs: 2, MemAvailable: 1 << 30},
	}
	if got := (FCFS{}).PickDevice(Waiter{}, devs); got != 1 {
		t.Errorf("PickDevice = %d, want 1 (fewest active vGPUs)", got)
	}
}

func TestPickDevicePrefersFasterOnTie(t *testing.T) {
	devs := []DeviceLoad{
		{Index: 0, Speed: 0.35, ActiveVGPUs: 1, MemAvailable: 1 << 30},
		{Index: 1, Speed: 1.0, ActiveVGPUs: 1, MemAvailable: 1 << 30},
	}
	if got := (FCFS{}).PickDevice(Waiter{}, devs); got != 1 {
		t.Errorf("PickDevice = %d, want 1 (faster device)", got)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{FCFS{}, ShortestJobFirst{}, CreditBased{}} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
