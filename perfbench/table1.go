package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"multihonest/internal/settlement"
)

// goldenCell is one committed Table-1 cell; Bits is the exact float64
// bit pattern the DP must reproduce.
type goldenCell struct {
	Frac  float64 `json:"frac"`
	K     int     `json:"k"`
	Alpha float64 `json:"alpha"`
	P     float64 `json:"p"`
	Bits  string  `json:"bits"`
}

// published holds the cells of the paper's Table 1 for k ≤ 400 (three
// significant digits). The paper's k = 500 rows are left out: they break
// their own blocks' geometric decay, and Monte-Carlo estimates agree with
// the DP instead of with them.
var published = []struct {
	frac  float64
	k     int
	alpha float64
	want  float64
}{
	{1.0, 100, 0.01, 5.70e-54}, {1.0, 200, 0.10, 9.82e-35}, {1.0, 300, 0.20, 1.14e-22},
	{1.0, 100, 0.30, 8.00e-04}, {1.0, 400, 0.30, 6.59e-12}, {1.0, 100, 0.40, 1.37e-01},
	{1.0, 400, 0.40, 2.18e-03}, {1.0, 100, 0.49, 9.05e-01}, {1.0, 400, 0.49, 8.29e-01},
	{0.9, 100, 0.01, 9.75e-52}, {0.9, 200, 0.20, 2.96e-15}, {0.9, 400, 0.40, 2.43e-03},
	{0.8, 100, 0.10, 4.13e-17}, {0.8, 300, 0.30, 6.78e-09}, {0.8, 400, 0.49, 8.38e-01},
	{0.5, 100, 0.40, 1.99e-01}, {0.5, 200, 0.01, 2.46e-55}, {0.5, 400, 0.10, 5.90e-53},
	{0.5, 300, 0.30, 6.19e-08}, {0.25, 100, 0.20, 8.94e-05}, {0.25, 200, 0.30, 3.36e-04},
	{0.25, 400, 0.01, 2.30e-48}, {0.25, 400, 0.40, 1.96e-02}, {0.01, 100, 0.01, 3.77e-01},
	{0.01, 200, 0.10, 2.41e-01}, {0.01, 300, 0.20, 2.61e-01}, {0.01, 400, 0.30, 4.04e-01},
	{0.01, 400, 0.49, 9.92e-01},
}

const goldenPath = "testdata/table1_golden.json"

func loadGolden(dir string) ([]goldenCell, error) {
	b, err := os.ReadFile(dir + "/" + goldenPath)
	if err != nil {
		return nil, err
	}
	var cells []goldenCell
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	if len(cells) != len(settlement.Table1Alphas)*len(settlement.Table1HonestFractions)*len(settlement.Table1Horizons) {
		return nil, fmt.Errorf("%s holds %d cells, want the full grid", goldenPath, len(cells))
	}
	return cells, nil
}

// goldenOf renders a computed table as golden cells in grid order.
func goldenOf(t *settlement.Table) []goldenCell {
	var out []goldenCell
	for _, f := range settlement.Table1HonestFractions {
		for _, k := range settlement.Table1Horizons {
			for _, a := range settlement.Table1Alphas {
				p := t.Cells[settlement.MakeKey(f, k, a)]
				out = append(out, goldenCell{Frac: f, K: k, Alpha: a, P: p,
					Bits: "0x" + strconv.FormatUint(math.Float64bits(p), 16)})
			}
		}
	}
	return out
}

// checkTable counts cells that differ from the golden in any bit, plus
// published cells off the paper by more than 2%.
func checkTable(t *settlement.Table, golden []goldenCell) (bad int, errs []string) {
	for _, c := range golden {
		got, ok := t.Cells[settlement.MakeKey(c.Frac, c.K, c.Alpha)]
		want, err := strconv.ParseUint(c.Bits[2:], 16, 64)
		if !ok || err != nil || math.Float64bits(got) != want {
			bad++
			errs = append(errs, fmt.Sprintf("cell frac=%v k=%d α=%v: got %v, golden %v", c.Frac, c.K, c.Alpha, got, c.P))
		}
	}
	for _, c := range published {
		got := t.Cells[settlement.MakeKey(c.frac, c.k, c.alpha)]
		if rel := math.Abs(got-c.want) / c.want; !(rel <= 0.02) {
			bad++
			errs = append(errs, fmt.Sprintf("published cell frac=%v k=%d α=%v: got %.3e, paper %.3e", c.frac, c.k, c.alpha, got, c.want))
		}
	}
	return bad, errs
}

// coldGrids is how many fresh processes each time one cold grid for
// table1's set-up.
const coldGrids = 5

// gridResult is one grid regeneration: its wall and CPU time and how its
// cells compared with the golden and the paper.
type gridResult struct {
	Seconds    float64  `json:"seconds"`
	CPUSeconds float64  `json:"cpu_seconds"`
	Cells      int      `json:"cells"`
	Bad        int      `json:"bad"`
	Errors     []string `json:"errors,omitempty"`
}

// computeGrid regenerates the full grid once on workers and checks it.
func computeGrid(golden []goldenCell, workers int) (gridResult, error) {
	cpu0, t0 := cpuTime(), time.Now()
	t, err := settlement.ComputeTable1(nil, nil, nil, workers)
	r := gridResult{Seconds: time.Since(t0).Seconds(), CPUSeconds: (cpuTime() - cpu0).Seconds()}
	if err != nil {
		return r, err
	}
	r.Bad, r.Errors = checkTable(t, golden)
	r.Cells = len(golden) + len(published)
	return r, nil
}

// coldGrid is the whole of a --cold-grid child process: one grid on a
// fresh runtime, reported to the parent as JSON on standard output.
func coldGrid(dir string) error {
	golden, err := loadGolden(dir)
	if err != nil {
		return err
	}
	r, err := computeGrid(golden, runtime.NumCPU())
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// runColdGrid starts this program again as a --cold-grid child and
// returns the grid it timed.
func runColdGrid(dir string) (gridResult, error) {
	self, err := os.Executable()
	if err != nil {
		return gridResult{}, err
	}
	cmd := exec.Command(self, "--cold-grid", "--dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return gridResult{}, fmt.Errorf("cold grid: %w", err)
	}
	var r gridResult
	if err := json.Unmarshal(out, &r); err != nil {
		return gridResult{}, fmt.Errorf("cold grid: %w", err)
	}
	return r, nil
}

// runTable1 regenerates the full grid in a closed loop for the run's
// seconds; each regeneration is one timed request. Set-up is the
// median wall time of coldGrids grids, each the first and only one of a
// fresh process (cold code, cold heap), so work moved out of the timed
// grids and into a process's first grid shows there.
func runTable1(rc runConfig) (*report, error) {
	rep := newReport()
	golden, err := loadGolden(rc.Dir)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	rep.Details["workers"] = workers
	count := func(r gridResult) {
		rep.Attempted += int64(r.Cells)
		rep.Failed += int64(r.Bad)
		rep.Errors = append(rep.Errors, r.Errors...)
	}
	var cold []float64
	for i := 0; i < coldGrids; i++ {
		r, err := runColdGrid(rc.Dir)
		if err != nil {
			return nil, err
		}
		count(r)
		cold = append(cold, r.Seconds)
	}
	rep.Details["cold_grid_s"] = cold
	rep.metric("setup_s", median(cold), "s")

	heap := startHeapSampler(0)
	rt0 := readRuntime()
	var grids []time.Duration
	var wall, cpu []float64
	window := time.Duration(rc.Seconds) * time.Second
	start := time.Now()
	for len(grids) == 0 || time.Since(start)+grids[len(grids)-1] <= window {
		r, err := computeGrid(golden, workers)
		if err != nil {
			return nil, err
		}
		count(r)
		grids = append(grids, time.Duration(r.Seconds*1e9))
		wall, cpu = append(wall, r.Seconds), append(cpu, r.CPUSeconds)
		heap.Cut()
	}
	rt := readRuntime().sub(rt0)
	peak := heap.Stop()
	n := float64(len(grids))
	rep.Details["grid_s_each"] = wall
	rep.Details["grid_cpu_s_each"] = cpu
	p50 := percentile(append([]time.Duration(nil), grids...), 0.5)
	rep.Details["p99"] = percentile(grids, 0.99)
	rep.Details["grid_s"] = p50.V.Seconds()
	rep.metric("p50_ms", ms(p50.V), "ms")
	rep.metric("cpu_us_per_req", median(cpu)*1e6, "us")
	rep.metric("peak_heap_mb", peak, "MB")

	if rc.Trace {
		layerTable1(rc, rep, golden, workers, p50.V, rt, n)
	}
	return rep, nil
}

// layerTable1 sweeps each (α, frac) block alone, serially, to find the
// slowest block and the total block work, and reports how well the
// worker pool packed that work into the grid's wall time.
func layerTable1(rc runConfig, rep *report, golden []goldenCell, workers int, grid time.Duration, rt runtimeCounters, n float64) {
	type block struct {
		Frac  float64 `json:"frac"`
		Alpha float64 `json:"alpha"`
		Ms    float64 `json:"ms"`
	}
	var blocks []block
	var maxB, sumB time.Duration
	for _, f := range settlement.Table1HonestFractions {
		for _, a := range settlement.Table1Alphas {
			t0 := time.Now()
			t, err := settlement.ComputeTable1([]float64{a}, []float64{f}, nil, 1)
			d := time.Since(t0)
			if err != nil {
				rep.Errors = append(rep.Errors, err.Error())
				return
			}
			for _, c := range golden {
				if c.Frac == f && c.Alpha == a {
					want, _ := strconv.ParseUint(c.Bits[2:], 16, 64)
					rep.Attempted++
					if math.Float64bits(t.Cells[settlement.MakeKey(f, c.K, a)]) != want {
						rep.Failed++
						rep.Errors = append(rep.Errors, fmt.Sprintf("block frac=%v α=%v k=%d differs from golden", f, a, c.K))
					}
				}
			}
			maxB, sumB = max(maxB, d), sumB+d
			blocks = append(blocks, block{f, a, ms(d)})
		}
	}
	rep.layer("settlement.block_max_ms", ms(maxB), "ms")
	rep.layer("settlement.block_sum_ms", ms(sumB), "ms")
	rep.layer("runner.pool_efficiency", float64(sumB)/(float64(workers)*float64(grid)), "ratio")
	rep.layer("goruntime.alloc_bytes_per_req", float64(rt.allocBytes)/n, "bytes")
	rep.layer("goruntime.gc_cycles_per_kreq", float64(rt.gcCycles)*1e3/n, "count")
	probeLattice(rep)

	// The serving ladder does not depend on the workload; it is measured
	// here on a cold stack so every traced run reports it.
	st, err := newStack(stackConfig{CacheEntries: workloads["hot-read"].CacheEntries})
	if err != nil {
		rep.Errors = append(rep.Errors, err.Error())
		return
	}
	probeLadder(rep, st)
	if err := st.Close(); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	summary := map[string]any{"grid_ms": ms(grid), "workers": workers, "blocks": blocks, "per_layer": rep.Layers}
	if err := writeJSON(filepath.Join(rc.Out, fmt.Sprintf("table1-s%d.layers.json", rc.Seed)), summary); err != nil {
		rep.Errors = append(rep.Errors, "writing layer summary: "+err.Error())
	}
}
