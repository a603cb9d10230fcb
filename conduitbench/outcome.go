package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	conduit "conduit"
	"conduit/internal/sim"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// scale is the workload scale factor every workload runs at (the repo
// default).
const scale = 2

// mixPolicies are the device policies the serving workloads draw from:
// Conduit and the two single-resource offloading baselines it is compared
// against in the paper.
var mixPolicies = []string{"Conduit", "DM-Offloading", "BW-Offloading"}

// suite returns the six evaluation workloads at the benchmark's scale.
func suite() []workloads.Named { return workloads.All(scale) }

// workloadNames lists the six workloads in figure order.
var workloadNames = func() []string {
	var names []string
	for _, w := range suite() {
		names = append(names, w.Name)
	}
	return names
}()

func cellKey(workload, policy string) string { return workload + "|" + policy }

// mixSequence returns n cells of the serving mix (every workload under
// every mix policy) in seeded permutation cycles: each run of 18
// consecutive cells holds every mix cell once. The mix then has the same
// proportions on every seed, and the seed sets only the order.
func mixSequence(seed uint64, n int) []cell {
	var cells []cell
	for _, w := range workloadNames {
		for _, p := range mixPolicies {
			cells = append(cells, cell{w, p})
		}
	}
	rng := sim.NewRNG(seed)
	out := make([]cell, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(cells)) {
			if len(out) < n {
				out = append(out, cells[i])
			}
		}
	}
	return out
}

// outcome is the simulated part of one cell's result: everything a run
// decides, none of what the wall clock decides. Two outcomes of one cell
// are equal exactly when the runs agree.
type outcome struct {
	Policy       string  `json:"policy"`
	ElapsedNS    int64   `json:"elapsed_ns"`
	ComputeJ     float64 `json:"compute_j"`
	MovementJ    float64 `json:"movement_j"`
	EnergyJ      float64 `json:"energy_j"`
	OverheadNS   int64   `json:"overhead_ns"`
	Decisions    int64   `json:"decisions"`
	DecisionHash uint64  `json:"decision_hash"`
	InstCount    int64   `json:"inst_count"`
	InstMeanNS   int64   `json:"inst_mean_ns"`
	Counters     string  `json:"counters"`
}

// project reduces a run result to its outcome.
func project(r *conduit.RunResult) outcome {
	o := outcome{
		Policy:     r.Policy,
		ElapsedNS:  int64(r.Elapsed),
		ComputeJ:   r.ComputeEnergy,
		MovementJ:  r.MovementEnergy,
		EnergyJ:    r.TotalEnergy(),
		OverheadNS: int64(r.OverheadTime),
		Decisions:  int64(len(r.Decisions)),
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		for i := range buf {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, d := range r.Decisions {
		word(int64(d.InstID))
		word(int64(d.Op))
		word(int64(d.Resource))
		word(int64(d.Issue))
		word(int64(d.Done))
	}
	o.DecisionHash = h.Sum64()
	if r.InstLatencies != nil {
		o.InstCount = int64(r.InstLatencies.Count())
		o.InstMeanNS = int64(r.InstLatencies.Mean())
	}
	if r.Counters != nil {
		var b strings.Builder
		for _, name := range r.Counters.Names() {
			b.WriteString(name + "=" + strconv.FormatInt(r.Counters.Get(name), 10) + ";")
		}
		o.Counters = b.String()
	}
	return o
}

// projectWire reduces a routed response to the outcome fields the wire
// carries: it has the decision count but not the decisions themselves.
func projectWire(resp wire.Response) outcome {
	o := outcome{ElapsedNS: resp.ElapsedSimNS, EnergyJ: resp.EnergyJ}
	if r := resp.Result; r != nil {
		o.Policy = r.Policy
		o.ComputeJ = r.ComputeEnergyJ
		o.MovementJ = r.MovementEnergyJ
		o.OverheadNS = r.OverheadNS
		o.Decisions = r.Decisions
		o.InstCount = r.InstCount
		o.InstMeanNS = r.InstMeanNS
		var b strings.Builder
		for _, c := range r.Counters {
			b.WriteString(c.Name + "=" + strconv.FormatInt(c.Value, 10) + ";")
		}
		o.Counters = b.String()
	}
	return o
}

// wireView drops the fields the wire does not carry.
func (o outcome) wireView() outcome {
	o.DecisionHash = 0
	return o
}

// reference holds the expected outcome of every cell a workload can
// produce, keyed by cellKey, plus the CPU baseline of each workload for
// the simulated speedup.
type reference map[string]outcome

// computeReference computes a workload's expected outcomes independently
// of the path the workload measures:
//   - paper-grid: the grid on the functional reference data plane;
//   - serve-open: serial Deployment.Run of every mix cell;
//   - fleet-routed: serial Cluster.RunSerial of every mix cell on the
//     targets' two-shard layout.
//
// Each also records the CPU baseline of every workload.
func computeReference(name string) (reference, error) {
	ref := make(reference)
	cfg := conduit.DefaultConfig()
	if name == "paper-grid" {
		e := conduit.NewReferenceExperiments(cfg, scale)
		e.SetWorkers(gridWorkers)
		names, policies := workloadNames, conduit.Policies()
		grid, err := e.RunGrid(names, policies)
		if err != nil {
			return ref, err
		}
		for i, w := range names {
			for j, p := range policies {
				ref[cellKey(w, p)] = project(grid[i][j])
			}
		}
		return ref, nil
	}
	sys := conduit.NewSystem(cfg)
	for _, w := range suite() {
		c, err := conduit.Compile(w.Source, &cfg)
		if err != nil {
			return ref, err
		}
		dep, err := sys.Deploy(c)
		if err != nil {
			return ref, err
		}
		cpu, err := dep.Run("CPU")
		if err != nil {
			return ref, err
		}
		ref[cellKey(w.Name, "CPU")] = project(cpu)
		run := dep.Run
		if name == "fleet-routed" {
			cl, err := sys.DeployCluster(w.Source, conduit.ClusterOptions{Shards: fleetShards})
			if err != nil {
				return ref, err
			}
			run = cl.RunSerial
		}
		for _, p := range mixPolicies {
			r, err := run(p)
			if err != nil {
				return ref, fmt.Errorf("reference %s under %s: %w", w.Name, p, err)
			}
			ref[cellKey(w.Name, p)] = project(r)
		}
	}
	return ref, nil
}

// referenceFromChild runs computeReference in a child copy of this
// binary and waits for it.
func referenceFromChild(name string) (reference, error) {
	var ref reference
	exe, err := os.Executable()
	if err != nil {
		return ref, err
	}
	cmd := exec.Command(exe, "--workload", name, "--reference")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return ref, fmt.Errorf("reference for %s: %w", name, err)
	}
	if err := json.Unmarshal(out, &ref); err != nil {
		return ref, fmt.Errorf("reference for %s: %w", name, err)
	}
	return ref, nil
}

// speedup is the geometric mean over the six workloads of the CPU
// baseline's simulated time divided by Conduit's, with Conduit's time
// taken from the outcomes the workload itself produced.
func speedup(ref reference, conduitNS map[string]int64) (float64, error) {
	sum := 0.0
	for _, w := range workloadNames {
		cpu, ok := ref[cellKey(w, "CPU")]
		ns := conduitNS[w]
		if !ok || ns <= 0 {
			return 0, fmt.Errorf("no Conduit result for %s", w)
		}
		sum += math.Log(float64(cpu.ElapsedNS) / float64(ns))
	}
	return math.Exp(sum / float64(len(workloadNames))), nil
}
