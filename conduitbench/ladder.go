package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	conduit "conduit"
	"conduit/internal/loadgen"
	"conduit/internal/router"
	"conduit/internal/wire"
)

// The per-layer ladder: closed loop at one caller, the same cells carried
// through every layer's public entry point, each rung timed from outside.
// The difference between adjacent rungs is the cost of the layer between
// them. Rungs run on a fixed cell and on a seeded mix of serving cells,
// in interleaved rounds, so that a slow spell of a shared machine lands
// on every rung alike instead of on whichever rung it happened to hit.
const (
	ladderWorkload = "AES"
	ladderPolicy   = "Conduit"
	// ladderMix is the number of cells one mix cycle runs: each mix cell
	// once, in seeded order.
	ladderMix = 18
	// ladderBudget bounds the interleaved rounds; ladderRounds is the
	// fewest rounds taken regardless of budget.
	ladderBudget = 5 * time.Second
	ladderRounds = 5
)

var rungNames = [8]string{
	"r0_compile", "r1_deploy", "r2_run_inline_fork", "r3_run_preforked",
	"r4_server_do", "r5_server_do_2shard", "r6_client_do", "r7_router_do",
}

// cell is one (workload, policy) request.
type cell struct{ workload, policy string }

var fixedCell = cell{ladderWorkload, ladderPolicy}

// probe is one timed entry point: op runs one cell, and each round
// times it once on the fixed cell and once over every cell of cycle.
type probe struct {
	op             func(c cell) error
	cycle          []cell
	fixed, perCell []float64 // µs per call; µs per cell of a cycle
}

func (p *probe) round() error {
	t0 := time.Now()
	if err := p.op(fixedCell); err != nil {
		return err
	}
	p.fixed = append(p.fixed, us(time.Since(t0)))
	t0 = time.Now()
	for _, c := range p.cycle {
		if err := p.op(c); err != nil {
			return err
		}
	}
	p.perCell = append(p.perCell, us(time.Since(t0))/float64(len(p.cycle)))
	return nil
}

// rung is a probe's median per-call time on the fixed cell and on its
// cycle, in microseconds.
type rung struct{ fixed, mix float64 }

func (p *probe) rung() rung { return rung{fixed: median(p.fixed), mix: median(p.perCell)} }

// ladder walks rungs R0-R7 and the per-layer probes and returns the
// per-layer metrics. The context ratios it records (pool hit ratio,
// engine p99, router spread, ...) come from its own single-caller
// servers; a workload that exercises those layers under load replaces
// them with its own.
func ladder(seed uint64) (metrics, error) {
	m := metrics{}
	mix := mixSequence(loadgen.Stream(seed, 20), ladderMix)
	cfg := conduit.DefaultConfig()
	sys := conduit.NewSystem(cfg)
	sources := make(map[string]*conduit.Source)
	// R0 and R1 do not depend on the policy: their cycle is the six
	// workloads, one grid pass's worth of compiles and deploys.
	var suiteCells, hostCells []cell
	for _, w := range suite() {
		sources[w.Name] = w.Source
		suiteCells = append(suiteCells, cell{w.Name, ladderPolicy})
		hostCells = append(hostCells, cell{w.Name, "CPU"}, cell{w.Name, "GPU"})
	}

	// Two deployments per workload: one forks inline (R2), one from a
	// prefork pool (R3).
	inline := make(map[string]*conduit.Deployment)
	pooled := make(map[string]*conduit.Deployment)
	for name, src := range sources {
		c, err := conduit.Compile(src, &cfg)
		if err != nil {
			return nil, err
		}
		if inline[name], err = sys.Deploy(c); err != nil {
			return nil, err
		}
		if pooled[name], err = sys.Deploy(c); err != nil {
			return nil, err
		}
		pooled[name].Prefork(servePrefork)
	}
	defer func() {
		for _, d := range pooled {
			d.Close()
		}
	}()
	// R4/R5: the in-process server, unsharded and two-shard; R6/R7: the
	// two-shard layout behind loopback targets, one target through its
	// client, then two through the router. All use the serve-open options.
	srv, _, err := newServeServer(serveOptions(), 1)
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	sharded, _, err := newServeServer(serveOptions(), fleetShards)
	if err != nil {
		return nil, err
	}
	defer sharded.Drain()
	f, _, err := newFleet(fleetTargets, fleetShards, serveOptions())
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := waitFull(func() []int64 {
		var idle []int64
		for _, d := range pooled {
			idle = append(idle, int64(d.Pool().Stats().Idle))
		}
		return idle
	}, len(pooled), servePrefork); err != nil {
		return nil, err
	}

	runOn := func(deps map[string]*conduit.Deployment) func(c cell) error {
		return func(c cell) error {
			_, err := deps[c.workload].Run(c.policy)
			return err
		}
	}
	serverDo := func(s *conduit.Server) func(c cell) error {
		return func(c cell) error {
			_, err := s.Do(conduit.Request{Tenant: "ladder", Workload: c.workload, Policy: c.policy})
			return err
		}
	}
	wireReq := func(c cell) wire.Request {
		return wire.Request{Tenant: "ladder", Workload: c.workload, Policy: c.policy}
	}
	wireCheck := func(c cell, resp wire.Response, err error) error {
		if err == nil && resp.Code != wire.CodeOK {
			err = fmt.Errorf("%s under %s: %s", c.workload, c.policy, resp.Error)
		}
		return err
	}
	// R6 sends each cell straight to the target the router would place
	// it on, so R7 - R6 is the router's own cost.
	home := make(map[string]*router.Client)
	for _, c := range f.clients {
		home[c.Name()] = c
	}
	var sample wire.Response
	served := make(map[string]int64)
	rungs := [8]*probe{
		{op: func(c cell) error { _, err := conduit.Compile(sources[c.workload], &cfg); return err }, cycle: suiteCells},
		{op: func(c cell) error {
			_, err := sys.Deploy(inline[c.workload].Compiled())
			return err
		}, cycle: suiteCells},
		{op: runOn(inline), cycle: mix},
		{op: runOn(pooled), cycle: mix},
		{op: serverDo(srv), cycle: mix},
		{op: serverDo(sharded), cycle: mix},
		{op: func(c cell) error {
			resp, err := home[f.rt.Home(c.workload)].Do(wireReq(c))
			if c == fixedCell {
				sample = resp
			}
			return wireCheck(c, resp, err)
		}, cycle: mix},
		{op: func(c cell) error {
			resp, name, err := f.rt.Do(wireReq(c))
			served[name]++
			return wireCheck(c, resp, err)
		}, cycle: mix},
	}
	fork := &probe{op: func(c cell) error { _, err := inline[c.workload].Fork(); return err }, cycle: suiteCells}
	host := &probe{op: runOn(inline), cycle: hostCells}
	all := append(rungs[:], fork, host)
	start := time.Now()
	for n := 0; n < ladderRounds || time.Since(start) < ladderBudget; n++ {
		for _, p := range all {
			if err := p.round(); err != nil {
				return nil, err
			}
		}
	}

	var r [8]rung
	for i, p := range rungs {
		r[i] = p.rung()
		m.set("ladder.aes."+rungNames[i]+"_us", "us", r[i].fixed)
		m.set("ladder.mix."+rungNames[i]+"_us", "us", r[i].mix)
	}
	printLadder(r)
	m.set("compiler.compile_ms", "ms", r[0].mix*float64(len(suiteCells))/1e3)
	m.set("nvme.deploy_ms", "ms", r[1].mix*float64(len(suiteCells))/1e3)
	m.set("ssd.run_us", "us", r[3].mix)
	m.set("pool.fork_us", "us", fork.rung().mix)
	m.set("host.run_us", "us", host.rung().mix)
	m.set("serve.overhead_us", "us", r[4].fixed-r[3].fixed)
	m.set("cluster.overhead_us", "us", r[5].fixed-r[4].fixed)
	m.set("wire.overhead_us", "us", r[6].fixed-r[5].fixed)
	m.set("router.overhead_us", "us", r[7].fixed-r[6].fixed)

	setServeContext(m, srv.Latencies(), srv.PoolStats(), srv.Total())
	snaps, err := f.snapshots()
	if err != nil {
		return nil, err
	}
	setFleetContext(m, snaps, f.rt.Stats(), routedPhase{served: served}.busiestShare())
	if err := deviceProbes(m, pooled, mix); err != nil {
		return nil, err
	}
	if err := wireProbes(m, wireReq(fixedCell), sample); err != nil {
		return nil, err
	}
	eff, err := parallelEfficiency()
	if err != nil {
		return nil, err
	}
	m.set("experiments.parallel_efficiency", "ratio", eff)
	return m, nil
}

// deviceProbes measures the device layer over one cycle of the mix's
// device cells on preforked deployments, simulated time per wall time
// and bytes allocated per run, and the time of a warm pool Get.
func deviceProbes(m metrics, deps map[string]*conduit.Deployment, mix []cell) error {
	var simNS, wallNS float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range mix {
		t0 := time.Now()
		r, err := deps[c.workload].Run(c.policy)
		if err != nil {
			return err
		}
		wallNS += float64(time.Since(t0))
		simNS += float64(r.Elapsed)
	}
	runtime.ReadMemStats(&after)
	m.set("ssd.sim_ns_per_wall_ns", "ratio", simNS/wallNS)
	m.set("ssd.alloc_kb_per_run", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(mix))/1024)

	pool := deps[ladderWorkload].Pool()
	idle := func() []int64 { return []int64{int64(pool.Stats().Idle)} }
	var samples []float64
	for len(samples) < 200 {
		if err := waitFull(idle, 1, servePrefork); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := pool.Get(); err != nil {
			return err
		}
		samples = append(samples, us(time.Since(t0)))
	}
	m.set("pool.get_us", "us", median(samples))
	return nil
}

// wireProbes times encoding and decoding of one representative request
// and response pair.
func wireProbes(m metrics, req wire.Request, resp wire.Response) error {
	const n = 2000
	var bufs [2][]byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if bufs[0], err = wire.Encode(req); err != nil {
			return err
		}
		if bufs[1], err = wire.Encode(resp); err != nil {
			return err
		}
	}
	m.set("wire.encode_ns", "ns", float64(time.Since(t0))/n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for _, b := range bufs {
			if _, err := wire.Decode(b[4:]); err != nil {
				return err
			}
		}
	}
	m.set("wire.decode_ns", "ns", float64(time.Since(t0))/n)
	return nil
}

// parallelEfficiency is the serial grid pass's time (the sum of the
// cells' serial times) over gridWorkers times the parallel pass's time.
func parallelEfficiency() (float64, error) {
	names, policies := workloadNames, conduit.Policies()
	pass := func(workers int) (float64, error) {
		e := conduit.NewExperiments(conduit.DefaultConfig(), scale)
		e.SetWorkers(workers)
		start := time.Now()
		_, err := e.RunGrid(names, policies)
		return time.Since(start).Seconds(), err
	}
	var serial, parallel []float64
	for i := 0; i < 2; i++ {
		s, err := pass(1)
		if err != nil {
			return 0, err
		}
		p, err := pass(gridWorkers)
		if err != nil {
			return 0, err
		}
		serial, parallel = append(serial, s), append(parallel, p)
	}
	return median(serial) / (gridWorkers * median(parallel)), nil
}

// printLadder writes the rungs and the deltas between adjacent rungs.
func printLadder(r [8]rung) {
	fmt.Fprintf(os.Stderr, "-- ladder (us per op; fixed cell %s/%s and the seeded mix) --\n", ladderWorkload, ladderPolicy)
	for i, x := range r {
		delta, dmix := "", ""
		if i >= 3 {
			delta = fmt.Sprintf("%+10.1f", x.fixed-r[i-1].fixed)
			dmix = fmt.Sprintf("%+10.1f", x.mix-r[i-1].mix)
		}
		fmt.Fprintf(os.Stderr, "  R%d %-22s fixed %10.1f %10s   mix %10.1f %10s\n", i, rungNames[i], x.fixed, delta, x.mix, dmix)
	}
}
