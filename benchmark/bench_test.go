package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"gvrt/internal/api"
	"gvrt/internal/ckptlog"
	"gvrt/internal/core"
	"gvrt/internal/memmgr"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The program's own contract table and the driver's must say the same.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(boundedWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program bounds %d", len(b.Workloads), len(boundedWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != boundedWorkloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, boundedWorkloads[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndContract) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEndContract))
	}
	for i, m := range b.EndToEnd {
		c := endToEndContract[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, c)
		}
	}
}

// Every workload runs at tiny size with its invariants holding and
// prints every end-to-end metric with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runEndToEnd(name, tinySizes, 1, 0.05, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, c := range endToEndContract {
				m, ok := res.get(c.Name)
				switch {
				case !ok:
					t.Errorf("metric %s not reported", c.Name)
				case m.Unit != c.Unit:
					t.Errorf("metric %s has unit %q, want %q", c.Name, m.Unit, c.Unit)
				case !(m.Value > 0):
					t.Errorf("metric %s = %v, want > 0", c.Name, m.Value)
				}
			}
			line := resultLine(res)
			var parsed struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("result line is not JSON: %v\n%s", err, line)
			}
			if !parsed.Correct || len(parsed.Metrics) != len(endToEndContract) || strings.Contains(line, "\n") {
				t.Errorf("result line: correct=%v, %d metrics: %s", parsed.Correct, len(parsed.Metrics), line)
			}
		})
	}
}

// The traced run (ladder + traced rounds of every workload) reports
// exactly the per-layer metrics BENCHMARK.json names, with their units.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	dir := t.TempDir()
	res, err := runTraced("tcp-offload", tinySizes, 1, 1.0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := readBenchmarkJSON(t).PerLayer
	for _, w := range want {
		m, ok := res.get(w.Name)
		switch {
		case !ok:
			t.Errorf("per-layer metric %s not reported", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("per-layer metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		names := map[string]bool{}
		for _, w := range want {
			names[w.Name] = true
		}
		for _, m := range res.Metrics {
			if !names[m.Name] {
				t.Errorf("metric %s reported but not in BENCHMARK.json", m.Name)
			}
		}
	}
	raw, err := os.ReadFile(dir + "/trace-tcp-offload.json")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range chrome.TraceEvents {
		seen[e.Name] = true
	}
	for _, span := range []string{"frontend.call", "transport.request", "core.proxy", "transport.tcp_call", "core.handle.cudaLaunch", "transport.reply"} {
		if !seen[span] {
			t.Errorf("trace file has no %s span", span)
		}
	}
}

func mustViolate(t *testing.T, err error, fragment string) {
	t.Helper()
	if err == nil {
		t.Errorf("broken invariant %q went unnoticed", fragment)
	} else if !strings.Contains(err.Error(), "validity invariant violated") || !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not report the broken invariant %q", err, fragment)
	}
}

// Each validity invariant, broken one at a time.
func TestInvariantChecks(t *testing.T) {
	const sessions = 10
	calls := sessions * dispatchScript.callsPerSession()

	good := core.Metrics{Binds: sessions, CallsServed: calls}
	if err := checkPipeDispatch(good, sessions); err != nil {
		t.Errorf("valid pipe-dispatch round rejected: %v", err)
	}
	m := good
	m.Memory.SwapOps = 1
	mustViolate(t, checkPipeDispatch(m, sessions), "swap_ops")
	m = good
	m.Offloaded = 1
	mustViolate(t, checkPipeDispatch(m, sessions), "offloaded")
	m = good
	m.Binds--
	mustViolate(t, checkPipeDispatch(m, sessions), "binds")
	m = good
	m.CallsServed++
	mustViolate(t, checkPipeDispatch(m, sessions), "calls served")

	head, peer := core.Metrics{Offloaded: sessions}, core.Metrics{CallsServed: calls}
	if err := checkTCPOffload(head, peer, 0, sessions); err != nil {
		t.Errorf("valid tcp-offload round rejected: %v", err)
	}
	mustViolate(t, checkTCPOffload(core.Metrics{Offloaded: sessions - 1}, peer, 0, sessions), "offloaded")
	mustViolate(t, checkTCPOffload(head, core.Metrics{CallsServed: calls - 1}, 0, sessions), "peer calls served")
	mustViolate(t, checkTCPOffload(head, peer, 3, sessions), "h2d_ops")

	intra := core.Metrics{Binds: sessions}
	intra.Memory.SwapOps = sessions * intraSwapOpsPerSession
	if err := checkSwapIntra(intra, sessions); err != nil {
		t.Errorf("valid intra phase rejected: %v", err)
	}
	m = intra
	m.Memory.SwapOps--
	mustViolate(t, checkSwapIntra(m, sessions), "intra phase swap_ops")
	m = intra
	m.Binds++
	mustViolate(t, checkSwapIntra(m, sessions), "intra phase binds")

	inter := core.Metrics{InterAppSwaps: sessions * interSwapOpsPerPair}
	inter.Memory.SwapOps = sessions * interSwapOpsPerPair
	if err := checkSwapInter(inter, sessions); err != nil {
		t.Errorf("valid inter phase rejected: %v", err)
	}
	m = inter
	m.Memory.SwapOps++
	mustViolate(t, checkSwapInter(m, sessions), "inter phase swap_ops")
	m = inter
	m.InterAppSwaps--
	mustViolate(t, checkSwapInter(m, sessions), "inter-app swaps")

	launches := sessions * durableScript.launchesPerSession()
	served := core.Metrics{CallsServed: sessions * durableScript.callsPerSession()}
	if err := checkDurableCommit(ckptlog.Stats{Syncs: launches}, served, sessions); err != nil {
		t.Errorf("valid durable-commit round rejected: %v", err)
	}
	mustViolate(t, checkDurableCommit(ckptlog.Stats{Syncs: launches - 1}, served, sessions), "journal syncs")
	mustViolate(t, checkDurableCommit(ckptlog.Stats{Syncs: launches}, core.Metrics{}, sessions), "calls served")

	if err := checkRecovered(&ckptlog.Recovered{Images: []*memmgr.ContextImage{{CtxID: 1}}}, nil); err != nil {
		t.Errorf("clean recovery rejected: %v", err)
	}
	mustViolate(t, checkRecovered(nil, errors.New("boom")), "does not reopen")
	mustViolate(t, checkRecovered(&ckptlog.Recovered{Quarantined: []ckptlog.Quarantine{{}}}, nil), "quarantined")
	mustViolate(t, checkRecovered(&ckptlog.Recovered{TornBytes: 9}, nil), "torn bytes")
}

// Without the ballast session the head serves the first arrivals
// itself, and the run must fail instead of reporting a number.
func TestTCPOffloadFailsWithoutBallast(t *testing.T) {
	w, err := newWorkload("tcp-offload", tinySizes, 2, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.(*tcpOffload).noBallast = true
	_, err = runRound(w, nil)
	mustViolate(t, err, "offloaded")
}

// A kernel that changes the buffer makes the read-back differ from the
// bytes written; the round must fail on it.
func TestDurableCommitFailsOnReadbackMismatch(t *testing.T) {
	api.RegisterKernelImpl(benchBinary.ID, "spin", func(mem api.KernelMemory, _ []uint64) error {
		buf, err := mem.Arg(0)
		if err == nil && len(buf) > 0 {
			buf[0] ^= 0xff
		}
		return err
	})
	defer api.RegisterKernelImpl(benchBinary.ID, "spin", nil)
	w, err := newWorkload("durable-commit", tinySizes, 2, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = runRound(w, nil)
	mustViolate(t, err, "read-back differs")
}

// A traced round of the offload path attributes every call's spans to
// its own session even with concurrent clients.
func TestTracedOffloadSpansNest(t *testing.T) {
	w, err := newWorkload("tcp-offload", tinySizes, 2, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(true, 1<<30)
	r, err := runRound(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.proxy_self_us", "transport.tcp_call_self_us", "core.peer_handle_us"} {
		if v := r.layer[name]; !(v > 0) {
			t.Errorf("%s = %v, want > 0: a span ended before it began or was paired with another session", name, v)
		}
	}
	byID := map[uint64]int{}
	for i, s := range tr.spans {
		byID[uint64(s.ID)] = i
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %s of session %d ends before it starts", s.Phase, s.Ctx)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[uint64(s.Parent)]
		if !ok {
			continue // parent is a frontend.call of a non-loop call, never recorded
		}
		parent := tr.spans[p]
		if parent.Ctx != s.Ctx {
			t.Fatalf("span %s of session %d hangs from %s of session %d", s.Phase, s.Ctx, parent.Phase, parent.Ctx)
		}
	}
}

func TestSelfcheckReportsMisses(t *testing.T) {
	var out strings.Builder
	err := runSelfcheck(&out, tinySizes, 1, 0.02, t.TempDir())
	// At tiny size two runs may or may not agree; either way the table
	// must list every bounded workload and metric, and the verdict must
	// match the table.
	for _, w := range boundedWorkloads {
		for _, c := range endToEndContract {
			if !strings.Contains(out.String(), w) || !strings.Contains(out.String(), c.Name) {
				t.Fatalf("selfcheck table lacks %s / %s:\n%s", w, c.Name, out.String())
			}
		}
	}
	if missed := strings.Contains(out.String(), "MISS"); missed != (err != nil) {
		t.Errorf("selfcheck verdict %v disagrees with its table:\n%s", err, out.String())
	}
}
