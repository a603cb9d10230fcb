package conduit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"conduit/internal/histo"
	"conduit/internal/loadgen"
	"conduit/internal/stats"
	"conduit/internal/workloads"
)

// LatencyOptions configures the open-loop throughput-latency sweep
// (Experiments.LatencyCurve). Zero values select the documented defaults.
type LatencyOptions struct {
	// Workloads is the request mix each point draws from (default: the
	// full evaluation suite). Workloads that cannot shard to a swept
	// cluster size are skipped at that size, like ClusterScaling.
	Workloads []string
	// Policies are swept one curve each (default: Conduit).
	Policies []string
	// Shards are the cluster sizes swept (default: {1}).
	Shards []int
	// Loads are the offered-load points in requests/s (default:
	// {100, 200, 400}).
	Loads []float64
	// Duration is each point's schedule span (default 300ms).
	Duration time.Duration
	// Arrival names the arrival process: poisson, burst, or diurnal
	// (default poisson).
	Arrival string
	// SLO is the per-request deadline; requests served within it count
	// as goodput (default 50ms; negative disables deadlines).
	SLO time.Duration
	// Seed is the root RNG seed; every point derives its own substream
	// (default 1).
	Seed uint64
	// Concurrency/QueueDepth/Prefork tune the server under test
	// (defaults: 4 workers, 4x queue, prefork 2).
	Concurrency int
	QueueDepth  int
	Prefork     int
}

func (o *LatencyOptions) defaults() {
	if len(o.Policies) == 0 {
		o.Policies = []string{"Conduit"}
	}
	if len(o.Shards) == 0 {
		o.Shards = []int{1}
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{100, 200, 400}
	}
	if o.Duration <= 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.Arrival == "" {
		o.Arrival = "poisson"
	}
	switch {
	case o.SLO == 0:
		o.SLO = 50 * time.Millisecond
	case o.SLO < 0:
		o.SLO = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Concurrency < 1 {
		o.Concurrency = 4
	}
	if o.Prefork == 0 {
		o.Prefork = 2
	}
}

// latencyPoint is one measured (policy, shards, load) cell. served
// counts successfully executed responses only — expired drops recycle
// the queue in microseconds, so counting them would make "achieved"
// track offered load instead of saturating at service capacity.
type latencyPoint struct {
	offered       float64
	served        int64
	shed, expired int64
	attained      int64
	elapsed       time.Duration
	wall          *histo.Histogram
}

// LatencyCurve drives the serving stack open-loop across a grid of
// offered loads and reports the throughput-latency curve per policy and
// cluster size: offered vs achieved requests/s, goodput (responses
// within the SLO per second), shed/expired counts, and p50/p99/p999
// wall-clock latency from the bounded histogram. Unlike every other
// experiment this one measures the *serving* layer under real
// wall-clock arrivals — the schedule is deterministic (seed-split per
// point), the measured latencies are operational.
//
// Each swept cluster size deploys one server (every workload compiled
// and NVMe-deployed once, then pool-forked per request); each (policy,
// load) point replays a fresh deterministic schedule against it and
// accounts responses client-side in per-collector histograms merged at
// the end — the merge-exactness of histo is what makes that sound.
func (e *Experiments) LatencyCurve(opts LatencyOptions) (*Table, error) {
	opts.defaults()
	for _, p := range opts.Policies {
		if !KnownPolicy(p) {
			return nil, errUnknownPolicy(p)
		}
	}
	names := opts.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	t := stats.NewTable(
		fmt.Sprintf("Latency: open-loop %s arrivals, SLO %v, %v per point", opts.Arrival, opts.SLO, opts.Duration),
		"policy", "shards", "offered_qps", "achieved_qps", "goodput_qps",
		"shed", "expired", "p50_ms", "p99_ms", "p999_ms")
	point := 0
	for _, shards := range opts.Shards {
		srv := NewServer(e.sys.cfg, ServeOptions{
			Concurrency: opts.Concurrency,
			QueueDepth:  opts.QueueDepth,
			Prefork:     opts.Prefork,
		})
		mix, err := registerMix(srv, names, e.scale, shards)
		if err != nil {
			srv.Drain()
			return nil, err
		}
		if len(mix) == 0 {
			srv.Drain()
			continue // every workload is too small for this cluster size
		}
		for _, policy := range opts.Policies {
			for _, load := range opts.Loads {
				schedule, err := loadgen.Generate(loadgen.Spec{
					Arrival:   opts.Arrival,
					QPS:       load,
					Duration:  opts.Duration,
					Seed:      loadgen.Stream(opts.Seed, uint64(point)),
					Tenants:   4,
					Workloads: mix,
					Policies:  []string{policy},
					SLO:       opts.SLO,
				})
				point++
				if err != nil {
					srv.Drain()
					return nil, err
				}
				pt := servePoint(srv, schedule, load)
				sec := pt.elapsed.Seconds()
				t.AddRowf(policy, shards, pt.offered,
					float64(pt.served)/sec,
					float64(pt.attained)/sec,
					pt.shed, pt.expired,
					float64(pt.wall.P50())/1e6,
					float64(pt.wall.P99())/1e6,
					float64(pt.wall.P999())/1e6)
			}
		}
		srv.Drain()
	}
	return t, nil
}

// registerMix registers each named workload on srv (sharded when shards
// > 1), skipping workloads the cluster planner rejects as too small to
// shard that wide, and returns the names actually registered.
func registerMix(srv *Server, names []string, scale, shards int) ([]string, error) {
	var mix []string
	for _, name := range names {
		w, ok := workloads.Find(name, scale)
		if !ok {
			return nil, fmt.Errorf("conduit: unknown workload %q", name)
		}
		var err error
		if shards > 1 {
			err = srv.RegisterSharded(w.Name, w.Source, shards)
			if errors.Is(err, ErrTooManyShards) {
				continue
			}
		} else {
			err = srv.Register(w.Name, w.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("register %s at %d shards: %w", w.Name, shards, err)
		}
		mix = append(mix, w.Name)
	}
	return mix, nil
}

// servePoint replays one schedule against srv open-loop and accounts the
// responses client-side: submissions pace off the schedule's wall-clock
// arrivals, responses drain into per-collector histograms (merged after
// the point — exact, by histo's merge algebra), and shed submissions
// count against goodput.
func servePoint(srv *Server, schedule []loadgen.Event, offered float64) latencyPoint {
	const collectors = 4
	type collector struct {
		wall              *histo.Histogram
		served            int64
		expired, attained int64
	}
	// Sized for the whole schedule so the issue callback can never block
	// on a slow collector: back-pressure here would delay scheduled
	// arrivals and silently turn the open-loop measurement closed-loop.
	chans := make(chan (<-chan *Response), len(schedule))
	var workers [collectors]collector
	var wg sync.WaitGroup
	for i := range workers {
		c := &workers[i]
		c.wall = histo.New()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ch := range chans {
				resp := <-ch
				if errors.Is(resp.Err, ErrDeadlineExceeded) {
					c.expired++
					continue
				}
				if resp.Err != nil {
					continue
				}
				// The curve reports service latency: only executed
				// responses enter the histogram (an expired drop's
				// "latency" is just its queue wait).
				c.served++
				c.wall.Add(resp.Latency.Nanoseconds())
				if resp.Request.Deadline == 0 || resp.Latency <= resp.Request.Deadline {
					c.attained++
				}
			}
		}()
	}

	pt := latencyPoint{offered: offered, wall: histo.New()}
	start := time.Now()
	loadgen.Replay(schedule, 1, func(ev loadgen.Event) {
		ch, err := srv.Submit(Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy, Deadline: ev.Deadline,
		})
		if err != nil {
			pt.shed++ // ErrOverloaded: shed at the door, never executed
			return
		}
		chans <- ch
	})
	close(chans)
	wg.Wait()
	pt.elapsed = time.Since(start)
	for i := range workers {
		pt.wall.Merge(workers[i].wall)
		pt.served += workers[i].served
		pt.expired += workers[i].expired
		pt.attained += workers[i].attained
	}
	return pt
}
