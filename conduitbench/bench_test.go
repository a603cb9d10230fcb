package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks the benchmark against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that got holds exactly the metrics of want, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, kind string, got metrics, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs each workload of BENCHMARK.json
// briefly (long enough that every workload's Conduit cell is served for
// the simulated speedup), traced, and checks that the verdict carries every per-layer
// metric and the run every end-to-end metric, each with its unit, and
// that the outputs matched the reference.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and the per-layer ladder")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(benchWorkloads))
	}
	for _, sw := range s.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			w, ok := findWorkload(sw.Name)
			if !ok {
				t.Fatalf("benchmark has no workload %q", sw.Name)
			}
			ref, err := computeReference(w.name)
			if err != nil {
				t.Fatal(err)
			}
			out, e2e, err := measure(w, params{seed: 7, seconds: 2, trace: true}, ref)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d, want a correct run with no failures",
					out.Correct, out.Attempted, out.Failed)
			}
			checkMetrics(t, "end-to-end", e2e, s.EndToEnd)
			checkMetrics(t, "per-layer", out.Metrics, s.PerLayer)
		})
	}
}

// TestCorruptedReferenceTripsGate corrupts every expected outcome and
// checks that each workload reports its outputs as incorrect.
func TestCorruptedReferenceTripsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ref, err := computeReference(w.name)
			if err != nil {
				t.Fatal(err)
			}
			for k, o := range ref {
				o.ElapsedNS++
				ref[k] = o
			}
			out, _, err := measure(w, params{seed: 7, seconds: 2}, ref)
			if err != nil {
				t.Fatal(err)
			}
			if out.Correct || out.Failed == 0 {
				t.Errorf("correct=%v failed=%d against a corrupted reference, want the gate to trip",
					out.Correct, out.Failed)
			}
		})
	}
}
