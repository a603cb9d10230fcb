package main

import (
	"fmt"
	"sync"
	"time"

	conduit "conduit"
	"conduit/internal/histo"
	"conduit/internal/loadgen"
	"conduit/internal/router"
	"conduit/internal/target"
	"conduit/internal/wire"
)

// fleet-routed settings: two targets, each serving every workload as a
// two-shard cluster with the recovery ladder armed, and two callers.
const (
	fleetTargets = 2
	fleetShards  = 2
	fleetCallers = 2
	fleetRetries = 2
	// fleetEvents is the length of each caller's seeded request sequence.
	fleetEvents = 4096
	// fleetWindows is the number of equal windows the run is split into;
	// at 20 s or more each holds over 1,000 requests.
	fleetWindows = 10
	// fleetTail is the percentile reported as tail_ms. Under 50% steal
	// the p99, taken net of steal, still rose from 7-8 ms to 14-15 ms on
	// a 2-vCPU guest: the host hands vCPUs back in slices of milliseconds,
	// and the slowest requests are the ones that waited out a slice.
	fleetTail = 0.90
)

func fleetOptions() conduit.ServeOptions {
	return conduit.ServeOptions{
		Concurrency: 1,
		Prefork:     2,
		Recovery: conduit.RecoveryOptions{
			MaxAttempts:      3,
			BreakerThreshold: 5,
			FallbackPolicy:   "CPU",
		},
	}
}

// fleet is a router over in-process targets listening on loopback TCP.
type fleet struct {
	targets []*target.Server
	clients []*router.Client
	rt      *router.Router
	serving sync.WaitGroup
}

// newFleet starts n targets with opts, each registering every workload
// as a shards-way cluster, dials them, builds the router and returns
// once every target's device pools are full.
func newFleet(n, shards int, opts conduit.ServeOptions) (*fleet, time.Duration, error) {
	sw := startWatch()
	f := &fleet{}
	for i := 0; i < n; i++ {
		ts, err := target.New("127.0.0.1:0", target.Options{
			Name: fmt.Sprintf("target-%d", i), Scale: scale, Shards: shards, Serve: opts,
		})
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.targets = append(f.targets, ts)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			ts.Serve()
		}()
		c, err := router.Dial(ts.Addr().String())
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.clients = append(f.clients, c)
	}
	rt, err := router.New(f.clients, router.Options{Retries: fleetRetries})
	if err != nil {
		f.close()
		return nil, 0, err
	}
	f.rt = rt
	for _, c := range f.clients {
		if err := waitFull(func() []int64 {
			snap, err := c.Snapshot()
			if err != nil {
				return nil
			}
			var idle []int64
			for _, p := range snap.Pools {
				idle = append(idle, p.Idle)
			}
			return idle
		}, 6*shards, int64(opts.Prefork)); err != nil {
			f.close()
			return nil, 0, err
		}
	}
	return f, sw.elapsed(), nil
}

// close tears the fleet down: connections first, then each target
// drains, and close returns once every Serve loop has exited. Closing
// twice is harmless.
func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, ts := range f.targets {
		ts.Drain()
	}
	f.serving.Wait()
}

// snapshots fetches every target's accounting snapshot.
func (f *fleet) snapshots() ([]wire.Snapshot, error) {
	var out []wire.Snapshot
	for _, c := range f.clients {
		s, err := c.Snapshot()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// routedPhase is the callers' account of a closed-loop routed run.
type routedPhase struct {
	latency   []float64       // ms per Router.Do
	done      []time.Duration // each completion's offset from the start
	gaps      []float64       // ms between a caller's reply and its next call
	served    map[string]int64
	t         tally
	elapsed   time.Duration
	conduitNS map[string]int64
	stolen    []float64 // stolen share of each of fleetWindows windows of the run
}

// closedLoop runs fleetCallers callers against the router until the
// deadline, each cycling through its own seeded mix sequence and
// billing the requests round-robin to serveTenants tenants.
func closedLoop(f *fleet, seed uint64, d time.Duration, ref reference) routedPhase {
	var tenants []string
	for i := 0; i < serveTenants; i++ {
		tenants = append(tenants, fmt.Sprintf("tenant-%02d", i))
	}
	phases := make([]routedPhase, fleetCallers)
	seqs := make([][]cell, fleetCallers)
	for c := range seqs {
		seqs[c] = mixSequence(loadgen.Stream(seed, uint64(10+c)), fleetEvents)
	}
	start := time.Now()
	deadline := start.Add(d)
	clocks := readWindows(start, d, fleetWindows)
	var wg sync.WaitGroup
	for c := range phases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph := &phases[c]
			ph.served = make(map[string]int64)
			ph.conduitNS = make(map[string]int64)
			var last time.Time
			for i := 0; time.Now().Before(deadline); i++ {
				next := seqs[c][i%len(seqs[c])]
				req := wire.Request{Tenant: tenants[i%serveTenants], Workload: next.workload, Policy: next.policy}
				t0 := time.Now()
				if !last.IsZero() {
					ph.gaps = append(ph.gaps, ms(t0.Sub(last)))
				}
				resp, name, err := f.rt.Do(req)
				last = time.Now()
				ph.t.attempted++
				if err != nil || resp.Code != wire.CodeOK {
					ph.t.failed++
					continue
				}
				ph.latency = append(ph.latency, ms(last.Sub(t0)))
				ph.done = append(ph.done, last.Sub(start))
				ph.served[name]++
				want, ok := ref[cellKey(next.workload, next.policy)]
				if !ok || projectWire(resp) != want.wireView() {
					ph.t.mismatched++
				}
				if next.policy == "Conduit" {
					ph.conduitNS[next.workload] = resp.ElapsedSimNS
				}
			}
		}()
	}
	wg.Wait()
	out := routedPhase{served: make(map[string]int64), conduitNS: make(map[string]int64), elapsed: time.Since(start), stolen: stolenShares(clocks.wait())}
	for _, ph := range phases {
		out.latency = append(out.latency, ph.latency...)
		out.done = append(out.done, ph.done...)
		out.gaps = append(out.gaps, ph.gaps...)
		out.t.add(ph.t)
		for k, v := range ph.served {
			out.served[k] += v
		}
		for k, v := range ph.conduitNS {
			out.conduitNS[k] = v
		}
	}
	return out
}

// busiestShare is the share of served requests the busiest target served.
func (ph routedPhase) busiestShare() float64 {
	var max, all int64
	for _, n := range ph.served {
		all += n
		if n > max {
			max = n
		}
	}
	if all == 0 {
		return 0
	}
	return float64(max) / float64(all)
}

// runFleet is the fleet-routed workload: two closed-loop callers through
// the router over two loopback targets.
func runFleet(p params, ref reference) (e2e, layers metrics, t tally, err error) {
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
			releaseMemory()
		}
		var d time.Duration
		if f, d, err = newFleet(fleetTargets, fleetShards, fleetOptions()); err != nil {
			return nil, nil, t, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.close()
	releaseMemory()

	ph := closedLoop(f, p.seed, durationOf(p.seconds), ref)
	t.add(ph.t)
	sp, err := speedup(ref, ph.conduitNS)
	if err != nil {
		return nil, nil, t, err
	}
	// Throughput and latency are medians over equal windows of the run,
	// each net of its window's steal, so a few seconds of contention on a
	// shared machine move one window, not the result.
	span := durationOf(p.seconds)
	w := netOfSteal(windowed(ph.done, ph.latency, span, fleetWindows), ph.stolen, 1)
	var rates []float64
	for k, x := range w {
		rates = append(rates, float64(len(x))/(span.Seconds()/fleetWindows)/(1-ph.stolen[k]))
	}
	rps := median(rates)
	tail := func(x []float64) float64 { return quantile(x, fleetTail) }
	logf("fleet-routed: %d requests in %.1fs; medians of %d windows net of steal (median %.0f%% stolen): %.1f req/s, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; busiest target %.2f",
		len(ph.latency), ph.elapsed.Seconds(), fleetWindows, 100*median(ph.stolen), rps, medianOver(w, median), medianOver(w, tail), medianOver(w, p99), ph.busiestShare())

	e2e = metrics{}
	e2e.set("setup_s", "s", median(setups))
	e2e.set("ops_per_s", "ops/s", rps)
	e2e.set("p50_ms", "ms", medianOver(w, median))
	e2e.set("tail_ms", "ms", medianOver(w, tail))
	e2e.set("conduit_sim_speedup", "x", sp)
	if p.trace {
		snaps, err := f.snapshots()
		if err != nil {
			return nil, nil, t, err
		}
		f.close() // the ladder builds its own fleet
		layers, err = ladder(p.seed)
		if err != nil {
			return nil, nil, t, err
		}
		setFleetContext(layers, snaps, f.rt.Stats(), ph.busiestShare())
		setServeContext(layers, fleetEngine(snaps), fleetPools(snaps), fleetTotal(snaps))
		layers.set("loadgen.late_p99_ms", "ms", quantile(ph.gaps, 0.99))
	}
	return e2e, layers, t, nil
}

// setFleetContext records the recovery and router ratios of one routed
// fleet.
func setFleetContext(m metrics, snaps []wire.Snapshot, st router.Stats, busiest float64) {
	var attempts, requests int64
	for _, s := range snaps {
		for _, row := range s.Tenants {
			attempts += row.Recovery.Attempts
			requests += row.Requests
		}
	}
	if requests > 0 {
		m.set("recovery.attempts_per_request", "ratio", float64(attempts)/float64(requests))
	}
	if st.Requests > 0 {
		m.set("router.attempts_per_request", "ratio", float64(st.Attempts)/float64(st.Requests))
	}
	m.set("router.busiest_target_share", "ratio", busiest)
}

func fleetEngine(snaps []wire.Snapshot) *histo.Histogram {
	h := histo.New()
	for _, s := range snaps {
		h.Merge(s.Wall)
	}
	return h
}

func fleetPools(snaps []wire.Snapshot) map[string]conduit.PoolStats {
	out := make(map[string]conduit.PoolStats)
	for _, s := range snaps {
		for _, p := range s.Pools {
			out[s.Target+"/"+p.Name] = conduit.PoolStats{Hits: p.Hits, Misses: p.Misses}
		}
	}
	return out
}

func fleetTotal(snaps []wire.Snapshot) conduit.TenantSnapshot {
	var t conduit.TenantSnapshot
	for _, s := range snaps {
		for _, row := range s.Tenants {
			t.Requests += row.Requests
			t.Shed += row.Shed
			t.Expired += row.Expired
		}
	}
	return t
}
