// Command conduitbench is the repository benchmark: one program that runs a
// named workload against the public surfaces of the Conduit stack, checks
// every output against an independently computed reference, and prints
// every metric by name and unit. See README.md for the workloads, the
// metrics and the per-layer ladder.
//
// Usage, from the repository root:
//
//	bash conduitbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of the traced
// run. Progress and human-readable tables go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; encoding/json sorts the keys, so
// the printed line is stable in shape.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's verdict line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts operations and the ones that failed: an error, a shed
// request or a result that differs from the reference.
type tally struct {
	attempted, failed, mismatched int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatched += o.mismatched
}

// setupRepeats is how many times each workload builds its set-up;
// setup_s is the median.
const setupRepeats = 3

// params are the knobs every workload receives from the command line.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workload runs one named workload. It returns the end-to-end metrics,
// the operations tally and, when p.trace is set, the per-layer metrics.
type workload struct {
	name string
	run  func(p params, ref reference) (e2e, layers metrics, t tally, err error)
}

// The three workloads stress different layers of one stack; README.md
// records why each was chosen.
var benchWorkloads = []workload{
	{"paper-grid", runGrid},
	{"serve-open", runServeOpen},
	{"fleet-routed", runFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-grid, serve-open or fleet-routed")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 25, "measured duration of the run in seconds")
		traced  = flag.Int("trace", 0, "1 runs the per-layer ladder and prints per-layer metrics")
		refOnly = flag.Bool("reference", false, "print the workload's reference outcomes as JSON and exit (used by the benchmark itself)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have paper-grid, serve-open, fleet-routed)", *name))
	}
	if *refOnly {
		ref, err := computeReference(w.name)
		if err != nil {
			fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(ref); err != nil {
			fail(err)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	p := params{seed: *seed, seconds: *seconds, trace: *traced == 1}

	fp := fingerprint()
	printJSON(map[string]any{"fingerprint": fp})
	logf("%s seed=%d seconds=%g trace=%v on %v", w.name, p.seed, p.seconds, p.trace, fp)

	// The reference runs in a child process so that its functional data
	// plane never counts towards this process's peak memory.
	ref, err := referenceFromChild(w.name)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	out, e2e, err := measure(w, p, ref)
	if err != nil {
		fail(err)
	}
	logf("%s finished in %.1fs", w.name, time.Since(start).Seconds())
	printTable("end-to-end", e2e)
	if p.trace {
		printTable("per-layer", out.Metrics)
		// The traced run's own end-to-end figures, for comparison with
		// an untraced run of the same seed: their difference is the
		// cost of the per-layer measurements.
		printJSON(map[string]any{"traced_end_to_end": e2e})
	}
	printJSON(out)
	if !out.Correct {
		os.Exit(1)
	}
}

// measure runs w and assembles the verdict line: the end-to-end metrics
// untraced, the per-layer metrics traced. It also returns the
// end-to-end metrics either way.
func measure(w workload, p params, ref reference) (result, metrics, error) {
	e2e, layers, t, err := w.run(p, ref)
	if err != nil {
		return result{}, nil, err
	}
	e2e.set("max_rss_mb", "MiB", maxRSSMiB())
	logf("%s: %d attempted, %d failed, %d mismatched", w.name, t.attempted, t.failed, t.mismatched)
	out := result{
		Correct:   t.mismatched == 0,
		Attempted: t.attempted,
		Failed:    t.failed + t.mismatched,
		Metrics:   e2e,
	}
	if p.trace {
		out.Metrics = layers
	}
	return out, e2e, nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "conduitbench: "+format+"\n", args...)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "conduitbench:", err)
	os.Exit(2)
}
