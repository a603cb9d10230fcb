package main

import (
	"fmt"
	"time"

	conduit "conduit"
	"conduit/internal/sim"
)

const (
	// gridWorkers is the RunGrid worker count: one per core of the
	// two-core machine the benchmark is sized for.
	gridWorkers = 2
	// gridTail is the pass-time percentile reported as tail_ms: a 35 s
	// run holds 100-160 passes, and the p80 keeps over twenty of them
	// beyond it.
	gridTail = 0.80
)

// gridOrder returns the grid's workload rows in a seed-chosen order and
// the policies in paper order. RunGrid places results by index, so the
// order changes only which cells the two workers pair up.
func gridOrder(seed uint64) (names, policies []string) {
	for _, i := range sim.NewRNG(seed).Perm(len(workloadNames)) {
		names = append(names, workloadNames[i])
	}
	return names, conduit.Policies()
}

// gridPass runs one full grid on a fresh harness, as a researcher
// regenerating the paper's figures would, and returns its time net of
// steal.
func gridPass(names, policies []string) ([][]*conduit.RunResult, time.Duration, error) {
	e := conduit.NewExperiments(conduit.DefaultConfig(), scale)
	e.SetWorkers(gridWorkers)
	sw := startWatch()
	grid, err := e.RunGrid(names, policies)
	return grid, sw.elapsed(), err
}

// checkGrid compares every cell of a pass with the reference and returns
// Conduit's simulated time per workload.
func checkGrid(grid [][]*conduit.RunResult, names, policies []string, ref reference) (tally, map[string]int64) {
	t := tally{}
	conduitNS := make(map[string]int64)
	for i, w := range names {
		for j, p := range policies {
			t.attempted++
			want, ok := ref[cellKey(w, p)]
			if !ok || project(grid[i][j]) != want {
				t.mismatched++
			}
			if p == "Conduit" {
				conduitNS[w] = int64(grid[i][j].Elapsed)
			}
		}
	}
	return t, conduitNS
}

// runGrid is the paper-grid workload: fresh-harness grid passes of the
// six workloads under the ten policies, back to back, for the measured
// duration. Set-up is a fresh harness's warm-up pass.
func runGrid(p params, ref reference) (e2e, layers metrics, t tally, err error) {
	names, policies := gridOrder(p.seed)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		_, d, err := gridPass(names, policies)
		if err != nil {
			return nil, nil, t, err
		}
		setups = append(setups, d.Seconds())
	}
	releaseMemory()

	var passes, gaps []float64
	var conduitNS map[string]int64
	deadline := time.Now().Add(durationOf(p.seconds))
	var lastEnd time.Time
	// At least two passes, so that there is a gap between passes to
	// report even in a very short run.
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		if !lastEnd.IsZero() {
			gaps = append(gaps, ms(time.Since(lastEnd)))
		}
		grid, d, err := gridPass(names, policies)
		lastEnd = time.Now()
		if err != nil {
			t.attempted += int64(len(names) * len(policies))
			t.failed += int64(len(names) * len(policies))
			continue
		}
		passes = append(passes, d.Seconds())
		pt, ns := checkGrid(grid, names, policies, ref)
		t.add(pt)
		conduitNS = ns
	}
	if len(passes) == 0 {
		return nil, nil, t, fmt.Errorf("paper-grid: every pass failed")
	}
	cells := float64(len(names) * len(policies))
	sp, err := speedup(ref, conduitNS)
	if err != nil {
		return nil, nil, t, err
	}
	logf("paper-grid: %d passes, median %.1f ms net of steal", len(passes), 1e3*median(passes))

	e2e = metrics{}
	e2e.set("setup_s", "s", median(setups))
	e2e.set("ops_per_s", "ops/s", cells/median(passes))
	e2e.set("p50_ms", "ms", 1e3*median(passes))
	e2e.set("tail_ms", "ms", 1e3*quantile(passes, gridTail))
	e2e.set("conduit_sim_speedup", "x", sp)
	if p.trace {
		layers, err = ladder(p.seed)
		if err != nil {
			return nil, nil, t, err
		}
		layers.set("loadgen.late_p99_ms", "ms", p99(gaps))
	}
	return e2e, layers, t, nil
}
