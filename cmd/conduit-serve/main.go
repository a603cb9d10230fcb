// Command conduit-serve runs the pooled, batched request-serving engine
// under generated or replayed traffic and prints per-tenant
// throughput/latency/SLO reports.
//
// Three traffic modes:
//
//   - Closed-loop (default): -clients goroutines draw (workload, policy)
//     pairs from the requested mix with deterministic per-client RNG
//     substreams (loadgen.Stream seed-splitting) and issue requests
//     back-to-back until -duration elapses. Offered load self-throttles
//     to service capacity — useful for capacity probing, blind to
//     overload.
//   - Open-loop (-open N): a deterministic -arrival schedule (poisson,
//     burst, or diurnal) at N req/s is generated up front and submitted
//     on its own clock, without waiting for completions. A full admission
//     queue sheds requests (ErrOverloaded), and requests that outlive
//     their -slo budget in the queue are dropped at dispatch without ever
//     consuming a pooled fork — the overload/tail-latency regime a
//     closed loop can never reach.
//   - Replay (-replay trace.jsonl): re-issue a recorded trace open-loop
//     with its recorded arrival spacing, time-scaled by -speed. The
//     workload mix is taken from the trace itself.
//
// Any mode combined with -record FILE captures the actually issued
// request stream (with observed arrival offsets) as a JSONL trace — a
// reproducible artifact of the run that -replay re-issues identically.
//
// With -shards N > 1 every workload registers as a multi-device cluster:
// its arrays shard row-block-wise across N simulated drives (broadcast
// arrays replicate), each request scatters into per-shard sub-runs on
// pooled clones, and the pool report shows one "workload#shard" row per
// device.
//
// With -faults RATE > 0 the server injects deterministic seeded faults
// (seed -faultseed) at the dispatch, pool, and device seams — the same
// rate mapping as the availability experiment — and serves through them
// with the recovery stack: -retries attempts per shard with simulated
// backoff, -hedge duplicate dispatch against stragglers, per-shard
// circuit breakers (-breaker N consecutive failures) degrading to the
// -fallback policy. -faultlog records the injected schedule as JSONL;
// -faultreplay re-injects a recorded schedule instead of drawing fresh.
// The run ends with a fault/recovery report, breaker states, and pool
// quarantine counts.
//
// -trace FILE records sampled requests as a Chrome/Perfetto trace on
// the simulated timeline (admission, coalesce, shard scatter, device
// runs, and every recovery action as instant events); -tracejsonl FILE
// writes the raw sorted span JSONL instead, and -tracesample N samples
// every Nth request (defaults to every request when a trace output is
// set). -metrics FILE ("-" for stdout) writes a text metrics scrape —
// counters, gauges, and latency histograms filled from the engine's
// accounting at scrape time. Tracing is off by default and costs one
// nil check when disabled (BenchmarkServeTraceOff).
//
// Usage:
//
//	conduit-serve -clients 32 -duration 2s
//	conduit-serve -open 500 -arrival poisson -slo 50ms -duration 2s
//	conduit-serve -open 800 -arrival burst -duration 2s -record burst.jsonl
//	conduit-serve -replay burst.jsonl -speed 2
//	conduit-serve -clients 32 -duration 2s -shards 4
//	conduit-serve -open 300 -duration 2s -shards 2 -faults 0.05 -hedge -breaker 4 -fallback CPU
//	conduit-serve -clients 8 -duration 2s -trace trace.json -metrics -
//	conduit-serve -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	conduit "conduit"
	"conduit/internal/loadgen"
	"conduit/internal/metrics"
	"conduit/internal/sim"
	"conduit/internal/stats"
	"conduit/internal/trace"
	"conduit/internal/workloads"
)

func main() {
	clients := flag.Int("clients", 32, "closed-loop client goroutines")
	duration := flag.Duration("duration", 2*time.Second, "load-generation window")
	mix := flag.String("mix", "all", `comma-separated workload mix, or "all" for the evaluation suite`)
	policies := flag.String("policies", "Conduit", "comma-separated policy mix requests draw from")
	scale := flag.Int("scale", 1, "workload scale factor")
	concurrency := flag.Int("concurrency", 0, "simultaneously executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission-queue depth (0 = 4x concurrency)")
	prefork := flag.Int("prefork", 2, "pre-forked devices per application (0 disables pooling)")
	shards := flag.Int("shards", 1, "simulated drives per workload (>1 registers sharded clusters)")
	tenants := flag.Int("tenants", 4, "tenants the requests round-robin across")
	coalesce := flag.Bool("coalesce", true, "share one execution among identical in-flight requests")
	memoize := flag.Bool("memoize", false, "cache each (workload, policy) result for the whole run")
	seed := flag.Uint64("seed", 1, "load-generator root RNG seed (split per client/substream)")
	open := flag.Float64("open", 0, "open-loop offered load in req/s (0 = closed-loop -clients mode)")
	arrival := flag.String("arrival", "poisson", "open-loop arrival process: poisson, burst, diurnal")
	slo := flag.Duration("slo", 0, "per-request deadline; queued requests past it are dropped undispatched (0 = none)")
	record := flag.String("record", "", "write the issued request stream as a JSONL trace to `file`")
	replay := flag.String("replay", "", "re-issue the JSONL trace in `file` instead of generating load")
	speed := flag.Float64("speed", 1, "replay time scale (2 = twice as fast as recorded)")
	faults := flag.Float64("faults", 0, "master injected-fault rate, mapped onto the dispatch/pool/device seams (0 disables chaos)")
	faultseed := flag.Uint64("faultseed", 42, "chaos RNG seed (independent of -seed)")
	retries := flag.Int("retries", 3, "max attempts per shard sub-run when recovery is active")
	hedge := flag.Bool("hedge", false, "hedge straggler shards with a duplicate dispatch")
	hedgethreshold := flag.Float64("hedgethreshold", 8, "straggler multiple (vs the fastest shard) that triggers a hedge")
	breaker := flag.Int("breaker", 0, "circuit-breaker consecutive-failure threshold per shard (0 disables)")
	fallback := flag.String("fallback", "", "policy served while a breaker is open (empty refuses with an error)")
	faultlog := flag.String("faultlog", "", "write the injected-fault schedule as a JSONL record to `file`")
	faultreplay := flag.String("faultreplay", "", "replay the recorded fault schedule in `file` instead of drawing from -faults")
	traceOut := flag.String("trace", "", "write sampled request spans as a Chrome/Perfetto trace to `file`")
	tracejsonl := flag.String("tracejsonl", "", "write sampled request spans as JSONL to `file`")
	tracesample := flag.Int("tracesample", 0, "trace every Nth request (0 with a -trace output set traces all)")
	metricsOut := flag.String("metrics", "", `write the metrics scrape (text exposition) to "file" ("-" = stdout)`)
	list := flag.Bool("list", false, "list workloads and policies, then exit")
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, name := range workloads.Names() {
			fmt.Printf("  %-18s (%s)\n", workloads.Canonical(name), name)
		}
		fmt.Println("policies:  ", strings.Join(conduit.Policies(), ", "))
		fmt.Println("ablations: ", strings.Join(conduit.AblationPolicies(), ", "))
		fmt.Println("arrivals:   poisson, burst, diurnal (open-loop); closed loop via -clients")
		return
	}
	if *tenants < 1 {
		*tenants = 1
	}
	if *shards < 1 {
		*shards = 1
	}

	// Replay mode loads its schedule first: the trace, not -mix, decides
	// which workloads must be registered.
	var replayTrace []loadgen.Event
	if *replay != "" {
		var err error
		replayTrace, err = loadgen.ReadFile(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: %v\n", err)
			os.Exit(2)
		}
		if len(replayTrace) == 0 {
			fmt.Fprintf(os.Stderr, "conduit-serve: trace %s is empty\n", *replay)
			os.Exit(2)
		}
	}

	// Resolve the workload mix against the evaluation suite (or, when
	// replaying, against the union of workloads the trace names).
	var chosen []workloads.Named
	switch {
	case *replay != "":
		seen := make(map[string]bool)
		for _, ev := range replayTrace {
			if seen[ev.Workload] {
				continue
			}
			seen[ev.Workload] = true
			w, ok := workloads.Find(ev.Workload, *scale)
			if !ok {
				fmt.Fprintf(os.Stderr, "conduit-serve: trace names unknown workload %q\n", ev.Workload)
				os.Exit(2)
			}
			chosen = append(chosen, w)
		}
		sort.Slice(chosen, func(i, j int) bool { return chosen[i].Name < chosen[j].Name })
	case *mix == "all":
		chosen = workloads.All(*scale)
	default:
		seen := make(map[string]bool)
		for _, name := range strings.Split(*mix, ",") {
			w, ok := workloads.Find(strings.TrimSpace(name), *scale)
			if !ok {
				fmt.Fprintf(os.Stderr, "conduit-serve: unknown workload %q (try -list)\n", name)
				os.Exit(2)
			}
			if seen[w.Name] {
				continue
			}
			seen[w.Name] = true
			chosen = append(chosen, w)
		}
	}

	// Validate the policy mix up front so a typo fails fast, not per
	// request mid-run. Replays trust the trace's policies the same way.
	polMix := strings.Split(*policies, ",")
	for i, p := range polMix {
		polMix[i] = strings.TrimSpace(p)
		if !conduit.KnownPolicy(polMix[i]) {
			fmt.Fprintf(os.Stderr, "conduit-serve: unknown policy %q (try -list)\n", polMix[i])
			os.Exit(2)
		}
	}

	opts := conduit.ServeOptions{
		Concurrency: *concurrency,
		QueueDepth:  *queue,
		Prefork:     *prefork,
		Coalesce:    *coalesce,
		Memoize:     *memoize,
	}
	if *traceOut != "" || *tracejsonl != "" || *tracesample > 0 {
		every := *tracesample
		if every < 1 {
			every = 1 // a trace output with no cadence records every request
		}
		opts.Trace = &conduit.TraceOptions{
			SampleEvery: every,
			Now:         func() int64 { return time.Now().UnixNano() },
		}
	}
	chaos := *faults > 0 || *faultreplay != ""
	if chaos {
		opts.Recovery = conduit.RecoveryOptions{
			MaxAttempts:      *retries,
			Hedge:            *hedge,
			HedgeThreshold:   *hedgethreshold,
			BreakerThreshold: *breaker,
			FallbackPolicy:   *fallback,
		}
		if *fallback != "" && !conduit.KnownPolicy(*fallback) {
			fmt.Fprintf(os.Stderr, "conduit-serve: unknown -fallback policy %q (try -list)\n", *fallback)
			os.Exit(2)
		}
	}
	switch {
	case *faultreplay != "":
		rf, err := conduit.ReadFaultLog(*faultreplay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: faultreplay: %v\n", err)
			os.Exit(2)
		}
		opts.ReplayFaults = rf
	case *faults > 0:
		cfg := conduit.FaultsAtRate(*faults, 0, *faultseed)
		opts.Faults = &cfg
	}
	srv := conduit.NewServer(conduit.DefaultConfig(), opts)
	fmt.Printf("registering %d workload(s) at scale %d across %d shard(s) each ...\n",
		len(chosen), *scale, *shards)
	deployStart := time.Now()
	for _, w := range chosen {
		var err error
		if *shards > 1 {
			err = srv.RegisterSharded(w.Name, w.Source, *shards)
		} else {
			err = srv.Register(w.Name, w.Source)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: register %s: %v\n", w.Name, err)
			os.Exit(1)
		}
	}
	names := make([]string, len(chosen))
	for i, w := range chosen {
		names[i] = w.Name
	}

	var rec *loadgen.Recorder
	if *record != "" {
		rec = loadgen.NewRecorder()
	}
	var tally traffic
	start := time.Now()
	switch {
	case *replay != "":
		fmt.Printf("deployed in %v; replaying %d-event trace at %gx speed\n",
			time.Since(deployStart).Round(time.Millisecond), len(replayTrace), *speed)
		tally = serveOpenLoop(srv, replayTrace, *speed, rec)
	case *open > 0:
		schedule, err := loadgen.Generate(loadgen.Spec{
			Arrival: *arrival, QPS: *open, Duration: *duration,
			Seed: *seed, Tenants: *tenants,
			Workloads: names, Policies: polMix, SLO: *slo,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("deployed in %v; offering %g req/s (%s arrivals, %d events) for %v (policies: %s)\n",
			time.Since(deployStart).Round(time.Millisecond), *open, *arrival, len(schedule), *duration,
			strings.Join(polMix, ", "))
		tally = serveOpenLoop(srv, schedule, 1, rec)
	default:
		fmt.Printf("deployed in %v; serving %d closed-loop clients for %v (policies: %s)\n",
			time.Since(deployStart).Round(time.Millisecond), *clients, *duration, strings.Join(polMix, ", "))
		tally = serveClosedLoop(srv, closedLoopConfig{
			clients: *clients, duration: *duration, seed: *seed,
			tenants: *tenants, workloads: names, policies: polMix, slo: *slo,
		}, rec)
	}
	elapsed := time.Since(start)
	srv.Drain()

	if rec != nil {
		events := rec.Events()
		if err := loadgen.WriteFile(*record, events); err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: record: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d-event trace -> %s\n", len(events), *record)
	}

	if *tracejsonl != "" || *traceOut != "" {
		spans := srv.Tracer().Spans()
		if *tracejsonl != "" {
			if err := writeSpans(*tracejsonl, spans, false); err != nil {
				fmt.Fprintf(os.Stderr, "conduit-serve: tracejsonl: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d-span JSONL trace -> %s\n", len(spans), *tracejsonl)
		}
		if *traceOut != "" {
			if err := writeSpans(*traceOut, spans, true); err != nil {
				fmt.Fprintf(os.Stderr, "conduit-serve: trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d-span Perfetto trace -> %s\n", len(spans), *traceOut)
		}
	}
	if *metricsOut != "" {
		out := os.Stdout
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "conduit-serve: metrics: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := metrics.WriteText(out, srv.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "conduit-serve: metrics: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Println()
	srv.Report().Render(os.Stdout)
	fmt.Println()

	pools := srv.PoolStats()
	poolNames := make([]string, 0, len(pools))
	for name := range pools {
		poolNames = append(poolNames, name)
	}
	sort.Strings(poolNames)
	pt := stats.NewTable("device pools (pre-forked Deployment clones)",
		"application", "preforked", "pool_hits", "inline_clones", "idle", "quarantined", "repairs")
	for _, name := range poolNames {
		ps := pools[name]
		pt.AddRowf(name, ps.Preforked, ps.Hits, ps.Misses, ps.Idle, ps.Quarantined, ps.Repairs)
	}
	if len(poolNames) > 0 {
		pt.Render(os.Stdout)
		fmt.Println()
	}

	total := srv.Total()
	if chaos {
		log := srv.FaultLog()
		kinds := make(map[conduit.FaultKind]int)
		for _, f := range log {
			kinds[f.Kind]++
		}
		kindNames := make([]string, 0, len(kinds))
		for k := range kinds {
			kindNames = append(kindNames, string(k))
		}
		sort.Strings(kindNames)
		ft := stats.NewTable("fault injection & recovery", "metric", "value")
		ft.AddRowf("faults_injected", len(log))
		for _, k := range kindNames {
			ft.AddRowf("injected_"+k, kinds[conduit.FaultKind(k)])
		}
		ft.AddRowf("attempts", total.Recovery.Attempts)
		ft.AddRowf("retries", total.Recovery.Retries)
		ft.AddRowf("hedges", total.Recovery.Hedges)
		ft.AddRowf("hedge_wins", total.Recovery.HedgeWins)
		ft.AddRowf("fallbacks", total.Recovery.Fallbacks)
		ft.AddRowf("backoff_sim_ms", float64(total.Recovery.BackoffSim)/1e6)
		ft.Render(os.Stdout)
		fmt.Println()
		if brk := srv.Breakers(); len(brk) > 0 {
			bt := stats.NewTable("circuit breakers", "breaker", "state", "trips")
			for _, b := range brk {
				bt.AddRowf(b.Name, b.State.String(), b.Trips)
			}
			bt.Render(os.Stdout)
			fmt.Println()
		}
		if *faultlog != "" {
			if err := conduit.WriteFaultLog(*faultlog, log); err != nil {
				fmt.Fprintf(os.Stderr, "conduit-serve: faultlog: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded %d-fault schedule -> %s\n\n", len(log), *faultlog)
		}
	}
	st := stats.NewTable("load summary", "metric", "value")
	st.AddRowf("wall_time", elapsed.Round(time.Millisecond).String())
	st.AddRowf("requests_offered", tally.offered)
	st.AddRowf("requests_served", tally.served)
	st.AddRowf("requests_shed", tally.shed)
	st.AddRowf("requests_expired", tally.expired)
	st.AddRowf("requests_failed", tally.failed)
	st.AddRowf("throughput_req_per_s", float64(tally.served)/elapsed.Seconds())
	st.AddRowf("goodput_req_per_s", float64(total.Attained)/elapsed.Seconds())
	st.AddRowf("slo_attainment_pct", fmt.Sprintf("%.1f", 100*total.Attainment()))
	st.Render(os.Stdout)
	// Under chaos, exhausted-recovery failures are the experiment working
	// as designed; only fault-free runs treat backend errors as fatal.
	if tally.failed > 0 && !chaos {
		os.Exit(1)
	}
}

// writeSpans exports the server's sampled spans as a single-process
// Perfetto trace or as JSONL.
func writeSpans(path string, spans []*trace.Span, perfetto bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if perfetto {
		err = trace.WritePerfetto(f, []trace.Process{{Name: "conduit-serve", Spans: spans}})
	} else {
		err = trace.WriteJSONL(f, spans)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traffic tallies one load-generation run. Shed and expired requests are
// the open-loop subsystem working as designed, not failures: only
// backend errors fail the command.
type traffic struct {
	offered int64 // every request the generator attempted
	served  int64 // completed successfully
	shed    int64 // rejected at admission (queue full)
	expired int64 // dropped at dispatch (deadline passed in queue)
	failed  int64 // backend errors
}

// serveOpenLoop paces schedule against the wall clock (scaled by speed),
// submitting without waiting for completions, then drains every response.
// issue order — and therefore the recorded trace — is exactly the
// schedule order regardless of timing.
func serveOpenLoop(srv *conduit.Server, schedule []loadgen.Event, speed float64, rec *loadgen.Recorder) traffic {
	var t traffic
	chans := make([]<-chan *conduit.Response, 0, len(schedule))
	loadgen.Replay(schedule, speed, func(ev loadgen.Event) {
		t.offered++
		if rec != nil {
			rec.Record(ev.Tenant, ev.Workload, ev.Policy, ev.Deadline)
		}
		ch, err := srv.Submit(conduit.Request{
			Tenant: ev.Tenant, Workload: ev.Workload, Policy: ev.Policy, Deadline: ev.Deadline,
		})
		switch {
		case err == nil:
			chans = append(chans, ch)
		case errors.Is(err, conduit.ErrOverloaded):
			t.shed++
		default:
			t.failed++
		}
	})
	for _, ch := range chans {
		resp := <-ch
		switch {
		case resp.Err == nil:
			t.served++
		case errors.Is(resp.Err, conduit.ErrDeadlineExceeded):
			t.expired++
		default:
			t.failed++
		}
	}
	return t
}

type closedLoopConfig struct {
	clients   int
	duration  time.Duration
	seed      uint64
	tenants   int
	workloads []string
	policies  []string
	slo       time.Duration
}

// serveClosedLoop runs the classic -clients loop: each client issues
// back-to-back blocking requests until the deadline. Per-client RNGs are
// loadgen.Stream substreams of the root seed — a SplitMix64-style split,
// so client streams are decorrelated and collision-free where the old
// seed + id*0x9e3779b9 derivation made nearby (seed, id) pairs share
// entire streams.
func serveClosedLoop(srv *conduit.Server, cfg closedLoopConfig, rec *loadgen.Recorder) traffic {
	var offered, served, expired, failed int64
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := sim.NewRNG(loadgen.Stream(cfg.seed, uint64(id)))
			tenant := fmt.Sprintf("tenant-%02d", id%cfg.tenants)
			for time.Now().Before(deadline) {
				req := conduit.Request{
					Tenant:   tenant,
					Workload: cfg.workloads[rng.Intn(len(cfg.workloads))],
					Policy:   cfg.policies[rng.Intn(len(cfg.policies))],
					Deadline: cfg.slo,
				}
				atomic.AddInt64(&offered, 1)
				if rec != nil {
					rec.Record(req.Tenant, req.Workload, req.Policy, req.Deadline)
				}
				_, err := srv.Do(req)
				switch {
				case err == nil:
					atomic.AddInt64(&served, 1)
				case errors.Is(err, conduit.ErrDeadlineExceeded):
					atomic.AddInt64(&expired, 1)
				default:
					atomic.AddInt64(&failed, 1)
				}
			}
		}(i)
	}
	wg.Wait()
	return traffic{offered: offered, served: served, expired: expired, failed: failed}
}
