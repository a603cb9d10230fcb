package main

import (
	"fmt"
	"math"
	"time"

	conduit "conduit"
	"conduit/internal/histo"
	"conduit/internal/loadgen"
)

// serve-open settings. Coalesce and Memoize stay off: every request to a
// cell computes the identical result, so sharing executions would turn
// the workload into a test of the result cache's hit rate instead of the
// serving path.
const (
	serveConcurrency = 2
	servePrefork     = 2
	// serveQueueDepth is deep enough that the ladder's overloaded steps
	// show up as queueing delay and backlog, which the SLO check reads,
	// instead of as shed requests.
	serveQueueDepth = 4096
	// serveRate is the fixed open-loop rate, about a sixth of the
	// capacity the ladder finds on a 2-core machine. At 300 and 400 req/s
	// the due-time latencies rose 1.5-2x whenever a shared machine was
	// busy, as queued requests waited out each stall; at this rate few
	// requests queue behind one.
	serveRate = 150.0
	// serveTail is the fixed-rate percentile reported as tail_ms. At
	// this rate the p99 still moved 1.2-1.8x and the p95 up to 1.3x with
	// the machine's load, and ten-run p95 spreads reached 0.32; the p90
	// moved least.
	serveTail = 0.90
	// The ladder starts at serveLadderStart req/s and steps by
	// serveGrowth until the SLO verdict flips, then bisects the last step
	// serveRefine times; serveLadderSteps is the number of steps the
	// ladder's half of the run is divided into, as the verdict usually
	// flips four steps up. Without the bisection, the answer moved by
	// whole steps: ten runs read 910-1150 req/s.
	serveLadderStart = 600.0
	serveGrowth      = 1.2
	serveRefine      = 2
	serveLadderSteps = 6
	serveSLO         = 50 * time.Millisecond
	serveTenants     = 4
	// serveWindows is the number of due-time windows a phase is split
	// into. Each window's latencies are taken net of the steal in it, and
	// the fixed rate's percentiles are medians over the windows, so a few
	// seconds of contention on a shared machine move two windows, not the
	// result. In a 35 s run each fixed-rate window holds about 250
	// requests, 25 of them beyond the p90.
	serveWindows = 10
	// serveMedianNet is the power of (1 - stolen share) the fixed rate's
	// median is scaled by; its tail and the ladder take the full share.
	// The vCPUs idle between requests and the host hands them back in
	// slices, so steal lands whole on the slowest requests and barely on
	// the median one. On a 2-vCPU guest, with 0-63% of the CPU time
	// stolen, the median scaled by the square root stayed within
	// 1.64-1.80 ms; the full share took it down to 1.1 ms and no
	// correction up to 2.9 ms. The p90 net of the full share stayed
	// within 3.0-3.6 ms up to 44% steal, 3.9-4.5 ms at 55-63%
	// (README.md, "Steal").
	serveMedianNet = 0.5
)

func serveOptions() conduit.ServeOptions {
	return conduit.ServeOptions{Concurrency: serveConcurrency, QueueDepth: serveQueueDepth, Prefork: servePrefork}
}

// newServeServer registers the six workloads unsharded (or as shards-way
// clusters) and returns once every device pool is full.
func newServeServer(opts conduit.ServeOptions, shards int) (*conduit.Server, time.Duration, error) {
	sw := startWatch()
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	for _, w := range suite() {
		var err error
		if shards > 1 {
			err = srv.RegisterSharded(w.Name, w.Source, shards)
		} else {
			err = srv.Register(w.Name, w.Source)
		}
		if err != nil {
			srv.Drain()
			return nil, 0, fmt.Errorf("register %s: %w", w.Name, err)
		}
	}
	if err := waitFull(func() []int64 {
		var idle []int64
		for _, ps := range srv.PoolStats() {
			idle = append(idle, int64(ps.Idle))
		}
		return idle
	}, 6*shards, int64(opts.Prefork)); err != nil {
		srv.Drain()
		return nil, 0, err
	}
	return srv, sw.elapsed(), nil
}

// waitFull polls until pools reports n pools, each holding depth idle
// forks.
func waitFull(pools func() []int64, n int, depth int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		idle := pools()
		full := len(idle) == n
		for _, v := range idle {
			full = full && v >= depth
		}
		if full {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("device pools did not fill within 30s")
}

// schedule generates a seeded Poisson schedule over the serving mix,
// the cells in mixSequence order.
func schedule(seed uint64, rate float64, d time.Duration) ([]loadgen.Event, error) {
	events, err := loadgen.Generate(loadgen.Spec{
		Arrival:   "poisson",
		QPS:       rate,
		Duration:  d,
		Seed:      seed,
		Tenants:   serveTenants,
		Workloads: workloadNames,
		Policies:  mixPolicies,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range mixSequence(loadgen.Stream(seed, 3), len(events)) {
		events[i].Workload, events[i].Policy = c.workload, c.policy
	}
	return events, nil
}

// openPhase is the client-side account of one open-loop schedule.
type openPhase struct {
	due       []time.Duration // each completed request's due offset
	latency   []float64       // ms from due time to completion
	late      []float64       // ms the generator sent after the due time
	t         tally
	elapsed   time.Duration // phase start to last completion
	conduitNS map[string]int64
	span      time.Duration // the schedule's length
	clocks    []cpuClock    // CPU clocks at the edges of serveWindows windows of span
}

// openLoop sends events, a schedule of length span, on time without
// waiting for replies. A request's latency runs from its due time: the
// generator's lateness plus the engine's own submit-to-completion stamp,
// so neither the collector's scheduling nor the correctness check enters
// it.
func openLoop(srv *conduit.Server, events []loadgen.Event, span time.Duration, ref reference) openPhase {
	type sent struct {
		ch   <-chan *conduit.Response
		due  time.Duration
		late time.Duration
	}
	// Sized to the schedule so the generator never blocks on the
	// collector.
	inflight := make(chan sent, len(events))
	ph := openPhase{conduitNS: make(map[string]int64), span: span}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range inflight {
			resp := <-s.ch
			ph.t.attempted++
			r := conduit.ResultOf(resp)
			if r == nil {
				ph.t.failed++
				continue
			}
			q := resp.Request
			if want, ok := ref[cellKey(q.Workload, q.Policy)]; !ok || project(r) != want {
				ph.t.mismatched++
			}
			if q.Policy == "Conduit" {
				ph.conduitNS[q.Workload] = int64(r.Elapsed)
			}
			end := s.due + s.late + resp.Latency
			if end > ph.elapsed {
				ph.elapsed = end
			}
			ph.due = append(ph.due, s.due)
			ph.latency = append(ph.latency, ms(s.late+resp.Latency))
		}
	}()
	start := time.Now()
	clocks := readWindows(start, span, serveWindows)
	var lates []float64
	shed := int64(0)
	for _, ev := range events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start) - ev.At
		lates = append(lates, ms(late))
		ch, err := srv.Submit(conduit.Request{Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy})
		if err != nil {
			shed++
			continue
		}
		inflight <- sent{ch: ch, due: ev.At, late: late}
	}
	close(inflight)
	<-done
	ph.clocks = clocks.wait()
	ph.late = lates
	ph.t.attempted += shed
	ph.t.failed += shed
	return ph
}

// windows splits the completed requests' latencies into the phase's
// serveWindows equal due-time windows, each scaled by (1 - its stolen
// share)^power.
func (ph openPhase) windows(power float64) [][]float64 {
	return netOfSteal(windowed(ph.due, ph.latency, ph.span, serveWindows), stolenShares(ph.clocks), power)
}

// stolenShare is the share of the CPU time asked for during the phase
// that the host stole.
func (ph openPhase) stolenShare() float64 {
	return stolenShare(ph.clocks[0], ph.clocks[len(ph.clocks)-1])
}

// score is a step's verdict against the SLO as one number: the larger
// of its median window p99 and the median latency of its last window
// (which a growing backlog drives up), all net of steal. A stall of the
// machine as long as the SLO lifts the p99 of the window it falls in,
// not the step's verdict. A step that failed any request
// scores +Inf; a result that differs from the reference is a
// correctness failure, tallied apart from the verdict.
func (ph openPhase) score() float64 {
	if ph.t.failed > 0 || len(ph.latency) == 0 {
		return math.Inf(1)
	}
	w := ph.windows(1)
	last := w[len(w)-1]
	if len(last) == 0 {
		return math.Inf(1)
	}
	return math.Max(medianOver(w, p99), median(last))
}

// completedRate is completed requests over the time from the phase's
// start to its last completion, net of steal: the host's share of the
// CPU time taken off the time.
func (ph openPhase) completedRate() float64 {
	return float64(len(ph.latency)) / ph.elapsed.Seconds() / (1 - ph.stolenShare())
}

// ladderPoint is one measured rate of the ladder: the rate offered, the
// rate completed and the step's score.
type ladderPoint struct{ offered, rate, score float64 }

// maxRate walks a ladder of rates from serveLadderStart, each step
// serveGrowth times the last, up (or down, if the first step already
// missed the SLO) until the verdict flips, and then bisects the last
// step serveRefine times. It returns the completed rate at which the
// score crosses the SLO, interpolated in log(score) between the two
// rates around the crossing, so that run-to-run noise moves the answer a
// little instead of a whole step.
func maxRate(srv *conduit.Server, seed uint64, step time.Duration, ref reference) (float64, tally, error) {
	const maxSteps = 12
	slo := ms(serveSLO)
	var t tally
	k := 0
	measure := func(offered float64) (ladderPoint, error) {
		k++
		events, err := schedule(loadgen.Stream(seed, uint64(100+k)), offered, step)
		if err != nil {
			return ladderPoint{}, err
		}
		ph := openLoop(srv, events, step, ref)
		t.add(ph.t)
		cur := ladderPoint{offered: offered, rate: ph.completedRate(), score: ph.score()}
		logf("serve-open ladder: offered %7.1f/s completed %7.1f/s score %7.2f ms", offered, cur.rate, cur.score)
		return cur, nil
	}
	var prev ladderPoint
	offered := serveLadderStart
	for k < maxSteps {
		// Far from the SLO the ladder takes double steps, so a much
		// faster or slower program does not lengthen the run by many
		// steps.
		switch {
		case k == 0:
		case prev.score > 4*slo:
			offered /= serveGrowth * serveGrowth
		case prev.score > slo:
			offered /= serveGrowth
		case prev.score < slo/4:
			offered *= serveGrowth * serveGrowth
		default:
			offered *= serveGrowth
		}
		cur, err := measure(offered)
		if err != nil {
			return 0, t, err
		}
		if k > 1 && (cur.score > slo) != (prev.score > slo) {
			// lo meets the SLO, hi misses it.
			lo, hi := prev, cur
			if lo.score > slo {
				lo, hi = hi, lo
			}
			for i := 0; i < serveRefine; i++ {
				mid, err := measure(math.Sqrt(lo.offered * hi.offered))
				if err != nil {
					return 0, t, err
				}
				if mid.score > slo {
					hi = mid
				} else {
					lo = mid
				}
			}
			if math.IsInf(hi.score, 1) {
				return lo.rate, t, nil
			}
			f := (math.Log(slo) - math.Log(lo.score)) / (math.Log(hi.score) - math.Log(lo.score))
			return lo.rate + f*(hi.rate-lo.rate), t, nil
		}
		prev = cur
	}
	return 0, t, fmt.Errorf("serve-open: the SLO verdict did not flip within %d ladder steps", maxSteps)
}

// runServeOpen is the serve-open workload: seeded Poisson arrivals at a
// fixed rate against an in-process server, then a ladder of higher
// rates for the highest rate that meets the SLO.
func runServeOpen(p params, ref reference) (e2e, layers metrics, t tally, err error) {
	var setups []float64
	var srv *conduit.Server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.Drain()
			releaseMemory()
		}
		var d time.Duration
		if srv, d, err = newServeServer(serveOptions(), 1); err != nil {
			return nil, nil, t, err
		}
		setups = append(setups, d.Seconds())
	}
	defer srv.Drain()
	releaseMemory()

	fixed := durationOf(p.seconds / 2)
	events, err := schedule(loadgen.Stream(p.seed, 1), serveRate, fixed)
	if err != nil {
		return nil, nil, t, err
	}
	ph := openLoop(srv, events, fixed, ref)
	t.add(ph.t)
	engine := srv.Latencies()
	pools := srv.PoolStats()
	total := srv.Total()

	maxRPS, lt, err := maxRate(srv, p.seed, durationOf(p.seconds/2/serveLadderSteps), ref)
	if err != nil {
		return nil, nil, t, err
	}
	// Ladder requests are attempted work and their results are checked,
	// but an overloaded step's latency is its verdict, not a failure.
	t.add(lt)
	sp, err := speedup(ref, ph.conduitNS)
	if err != nil {
		return nil, nil, t, err
	}
	w, mid := ph.windows(1), ph.windows(serveMedianNet)
	tail := func(x []float64) float64 { return quantile(x, serveTail) }
	logf("serve-open fixed %g/s: %d requests; medians of %d windows net of steal (median %.0f%% stolen): p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; late p99 %.2f ms",
		serveRate, len(ph.latency), len(w), 100*median(stolenShares(ph.clocks)), medianOver(mid, median), medianOver(w, tail), medianOver(w, p99), p99(ph.late))

	e2e = metrics{}
	e2e.set("setup_s", "s", median(setups))
	e2e.set("ops_per_s", "ops/s", maxRPS)
	e2e.set("p50_ms", "ms", medianOver(mid, median))
	e2e.set("tail_ms", "ms", medianOver(w, tail))
	e2e.set("conduit_sim_speedup", "x", sp)
	if p.trace {
		srv.Drain() // the ladder builds its own servers
		layers, err = ladder(p.seed)
		if err != nil {
			return nil, nil, t, err
		}
		setServeContext(layers, engine, pools, total)
		layers.set("loadgen.late_p99_ms", "ms", p99(ph.late))
	}
	return e2e, layers, t, nil
}

// setServeContext records the serving layers' ratios as observed by one
// server.
func setServeContext(m metrics, engine *histo.Histogram, pools map[string]conduit.PoolStats, total conduit.TenantSnapshot) {
	var hits, misses int64
	for _, ps := range pools {
		hits += ps.Hits
		misses += ps.Misses
	}
	if hits+misses > 0 {
		m.set("pool.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	m.set("serve.engine_p99_ms", "ms", float64(engine.P99())/1e6)
	if offered := total.Requests + total.Shed; offered > 0 {
		m.set("serve.shed_ratio", "ratio", float64(total.Shed+total.Expired)/float64(offered))
	}
}
