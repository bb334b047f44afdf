package exp

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"gvrt/internal/core"
	"gvrt/internal/gpu"
	"gvrt/internal/workload"
)

// fast options: the logic paths run fully, wall time stays negligible.
// Timing *ratios* are not asserted at this scale (wall noise dominates);
// the shape regression tests below use a slower clock.
func fastOpts() Options { return Options{Scale: 1e-6, Runs: 1, Seed: 1} }

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", Paper: "paper says so",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "paper says so", "long-header", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 1e-3 || o.runs() != 3 {
		t.Errorf("defaults = scale %v, runs %d", o.scale(), o.runs())
	}
	o = Options{Scale: 0.5, Runs: 7}
	if o.scale() != 0.5 || o.runs() != 7 {
		t.Errorf("overrides ignored")
	}
	o.logf("no verbose sink: must not panic")
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Run == nil {
			t.Errorf("experiment with empty ID or nil Run")
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table2", "ctxlimit", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !ids[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

// TestCtxLimitShape: the one experiment whose outcome is count-based,
// not timing-based, so it is exact at any clock scale.
func TestCtxLimitShape(t *testing.T) {
	tbl, err := CtxLimit(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	if tbl.Rows[0][3] != "4" {
		t.Errorf("bare runtime failed %s of 12 jobs, want 4", tbl.Rows[0][3])
	}
	if tbl.Rows[1][2] != "48" || tbl.Rows[1][3] != "0" {
		t.Errorf("gvrt row = %v, want 48 completed, 0 failed", tbl.Rows[1])
	}
	for _, n := range tbl.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("note flags broken model: %s", n)
		}
	}
}

// TestTable2Shape checks every program runs to completion and the
// kernel-call column matches the paper.
func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 13 {
		t.Fatalf("%d rows, want 13", len(tbl.Rows))
	}
	want := map[string]string{"BP": "40", "SC": "3300", "MM-L": "10"}
	for _, row := range tbl.Rows {
		if w, ok := want[row[0]]; ok && row[1] != w {
			t.Errorf("%s kernel calls = %s, want %s", row[0], row[1], w)
		}
	}
}

// TestFig7Shape is the headline shape regression: serialized execution
// grows with CPU fraction while sharing stays flat. It runs at a clock
// scale where modeled time dominates, with a trimmed workload (12 jobs,
// 2 fractions) to stay fast.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-shape test")
	}
	c, err := measureFig7Corners()
	if err != nil {
		t.Fatal(err)
	}
	checkFig7Shape(t, c)
}

// fig7Corners are Fig 7's corners in model seconds: one vGPU per device
// (serialized) and four (shared), each at CPU fraction 0 and 2.
type fig7Corners struct{ ser0, ser2, shr0, shr2 float64 }

func measureFig7Corners() (c fig7Corners, err error) {
	o := Options{Scale: 2e-4, Runs: 1, Seed: 1}
	specs := threeGPUNode()
	measure := func(vgpus int, frac float64) float64 {
		batch := make([]workload.App, 12)
		for i := range batch {
			batch[i] = workload.MML(frac)
		}
		res, _, e := runGvrtBatch(o, core.Config{VGPUsPerDevice: vgpus}, specs, batch)
		if e == nil && res.Failed() > 0 {
			e = fmt.Errorf("vgpus=%d frac=%v: %w", vgpus, frac, firstErr(res))
		}
		if err == nil {
			err = e
		}
		return res.Total.Seconds()
	}
	c.ser0, c.ser2 = measure(1, 0), measure(1, 2)
	c.shr0, c.shr2 = measure(4, 0), measure(4, 2)
	return c, err
}

func checkFig7Shape(t *testing.T, c fig7Corners) {
	t.Helper()
	// Serialized grows strongly with CPU fraction.
	if c.ser2 < c.ser0*1.8 {
		t.Errorf("serialized: frac 2 (%v s) not ≫ frac 0 (%v s)", c.ser2, c.ser0)
	}
	// Sharing stays flat-ish.
	if c.shr2 > c.shr0*1.5 {
		t.Errorf("sharing: frac 2 (%v s) grew vs frac 0 (%v s)", c.shr2, c.shr0)
	}
	// At high CPU fraction, sharing clearly beats serialization.
	if c.shr2 > c.ser2*0.7 {
		t.Errorf("sharing at frac 2 (%v s) not clearly below serialized (%v s)", c.shr2, c.ser2)
	}
}

// TestBareBaselineRoundRobin checks the bare batch places jobs across
// devices.
func TestBareBaselineRoundRobin(t *testing.T) {
	o := fastOpts()
	apps := []workload.App{workload.MT(), workload.MT(), workload.MT()}
	res, err := runBareBatch(o, []gpu.Spec{gpu.TeslaC2050, gpu.TeslaC1060}, apps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("bare batch failed: %v", res.Errors)
	}
}

// TestBenchNumbersParse: every numeric cell in a regenerated table must
// parse, so downstream tooling (bench harness, plots) can consume it.
func TestBenchNumbersParse(t *testing.T) {
	tbl, err := CtxLimit(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if _, err := strconv.Atoi(cell); err != nil {
				t.Errorf("cell %q does not parse as int", cell)
			}
		}
	}
}

func TestRenderChart(t *testing.T) {
	tbl := &Table{
		ID: "c", Title: "chart demo",
		Header: []string{"x", "series-a", "series-b", "note"},
		Rows: [][]string{
			{"p1", "10.0", "5.0", "n/a"},
			{"p2", "20.0", "0", "n/a"},
		},
	}
	var buf bytes.Buffer
	tbl.RenderChart(&buf)
	out := buf.String()
	for _, want := range []string{"chart demo", "series-a", "series-b", "x=p1", "x=p2", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The 20.0 bar must be about twice the 10.0 bar.
	lines := strings.Split(out, "\n")
	bars := map[string]int{}
	ctx := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "x=") {
			ctx = l
		}
		if strings.Contains(l, "series-a") && ctx != "" {
			bars[ctx] = strings.Count(l, "#")
		}
	}
	if bars["x=p2"] < bars["x=p1"]*2-2 || bars["x=p2"] > bars["x=p1"]*2+2 {
		t.Errorf("bar scaling off: %v", bars)
	}
	// A table with no numeric columns degrades gracefully.
	empty := &Table{ID: "e", Header: []string{"a", "b"}, Rows: [][]string{{"x", "y"}}}
	buf.Reset()
	empty.RenderChart(&buf)
	if !strings.Contains(buf.String(), "no numeric series") {
		t.Error("empty chart message missing")
	}
}

// TestAllExperimentsSmoke runs every registered experiment at a tiny
// clock scale: no timing assertions, but every code path — workload
// construction, cluster wiring, failure injection, table assembly —
// must complete without error.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	o := Options{Scale: 1e-6, Runs: 1, Seed: 1}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Error("no rows")
			}
			var buf bytes.Buffer
			tbl.Render(&buf)
			tbl.RenderChart(&buf)
			if buf.Len() == 0 {
				t.Error("rendering produced nothing")
			}
		})
	}
}
