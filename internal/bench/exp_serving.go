package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qasom"
	"qasom/internal/obs"
)

func servingExperiments() []*Experiment {
	return []*Experiment{expServingThroughput()}
}

// ThroughputConfig parameterises a closed-loop serving run: N clients
// compose the same task back-to-back against one middleware while the
// registry churns underneath, the steady-state regime the selection-plan
// cache exists for.
type ThroughputConfig struct {
	// Clients is the number of concurrent closed-loop clients; 0 means
	// GOMAXPROCS.
	Clients int
	// Churn runs a background publisher/withdrawer during the run: mostly
	// capabilities the task does not touch (the cache must keep hitting),
	// with a periodic touched-capability churn that forces epoch
	// invalidation and a fresh selection.
	Churn bool
	// Seed drives the middleware; 0 means 1.
	Seed int64
	// Ctx cancels a long run early; the partial result is still reported
	// (Partial is set). Nil means Background.
	Ctx context.Context
}

// ThroughputResult is the outcome of one closed-loop run.
type ThroughputResult struct {
	// Ops is the number of compositions completed.
	Ops int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// OpsPerSec is Ops/Elapsed.
	OpsPerSec float64
	// P50 and P99 are per-composition latency quantiles.
	P50, P99 time.Duration
	// HitRate is the fraction of compositions served from the plan cache.
	HitRate float64
	// SLOAttainment is the fraction of compositions inside the rig's
	// serving SLO (latency under servingSLOLatency and no error), as
	// reported by the hub's burn-rate engine.
	SLOAttainment float64
	// Partial reports that Ctx was cancelled before the run finished.
	Partial bool
}

// ThroughputRig is a prepared serving workload: a middleware with the
// shopping environment published, a fixed feasible request, and the
// client/churner configuration. Separate from Run so benchmarks can
// exclude setup from the timed section.
type ThroughputRig struct {
	mw      *qasom.Middleware
	req     qasom.Request
	slo     *obs.SLOEngine
	clients int
	churn   bool
	ctx     context.Context
}

// servingSLOLatency is the per-composition latency objective of the
// serving SLO: generous against the warm-cache path (tens of µs) yet
// tight enough that a fresh selection under churn registers as a slow
// request when the machine is loaded.
const servingSLOLatency = 250 * time.Microsecond

const servingTask = `<process name="serving-shopping" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

// NewThroughputRig builds the closed-loop serving workload: a
// middleware reporting into a private hub (so runs do not pollute the
// process-wide registry), the shopping environment published, an
// attached serving SLO, and the fixed feasible request.
func NewThroughputRig(cfg ThroughputConfig) (*ThroughputRig, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = runtime.GOMAXPROCS(0)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	hub := obs.NewHub()
	slo := obs.NewSLOEngine(obs.SLOConfig{
		Name:             "serving",
		Availability:     0.999,
		LatencyObjective: servingSLOLatency,
	}, hub.Metrics)
	hub.SLO = slo
	mw, err := qasom.New(qasom.Options{Seed: cfg.Seed, Obs: hub})
	if err != nil {
		return nil, err
	}
	for _, spec := range []struct{ prefix, capability string }{
		{"browse", "BrowseCatalog"}, {"order", "OrderItem"}, {"pay", "CardPayment"},
	} {
		for i := 0; i < 5; i++ {
			err := mw.Publish(qasom.Service{
				ID:         fmt.Sprintf("%s-%d", spec.prefix, i),
				Capability: spec.capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return &ThroughputRig{
		mw:  mw,
		slo: slo,
		req: qasom.Request{
			Task:        servingTask,
			Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}},
		},
		clients: cfg.Clients,
		churn:   cfg.Churn,
		ctx:     cfg.Ctx,
	}, nil
}

// Warm populates the plan cache with one composition so a subsequent Run
// measures the steady state rather than the first-request miss.
func (r *ThroughputRig) Warm() error {
	_, err := r.mw.Compose(r.req)
	return err
}

// Run executes ops compositions across the rig's clients (closed loop:
// each client issues its next request as soon as the previous one
// returns) and reports throughput, latency quantiles and the cache hit
// rate. When the rig's context is cancelled mid-run, the clients drain
// promptly and the partial counts are still reported.
func (r *ThroughputRig) Run(ops int) (ThroughputResult, error) {
	if ops < 1 {
		ops = 1
	}
	// The churner (ThroughputConfig.Churn) publishes and withdraws an
	// untouched capability; every 32nd cycle it churns OrderItem, which
	// the task touches.
	stopChurn := make(chan struct{})
	var churner sync.WaitGroup
	if r.churn {
		churner.Add(1)
		go func() {
			defer churner.Done()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				capability, id := "LabAnalysis", fmt.Sprintf("churn-lab-%d", i%4)
				if i%32 == 31 {
					capability, id = "OrderItem", fmt.Sprintf("churn-order-%d", i%4)
				}
				_ = r.mw.Publish(qasom.Service{
					ID: id, Capability: capability,
					QoS: map[string]float64{
						"responseTime": 35, "price": 4,
						"availability": 0.96, "reliability": 0.92, "throughput": 45,
					},
				})
				r.mw.Withdraw(id)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	var next atomic.Int64
	var hits atomic.Int64
	var done atomic.Int64
	var cancelled atomic.Bool
	latencies := make([][]time.Duration, r.clients)
	errs := make([]error, r.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, ops/r.clients+1)
			for {
				if int(next.Add(1)) > ops {
					break
				}
				if r.ctx.Err() != nil {
					cancelled.Store(true)
					break
				}
				opStart := time.Now()
				comp, err := r.mw.ComposeContext(r.ctx, r.req)
				d := time.Since(opStart)
				r.slo.Observe(d, err)
				if err != nil {
					if r.ctx.Err() != nil {
						cancelled.Store(true)
						break
					}
					errs[c] = err
					break
				}
				lats = append(lats, d)
				done.Add(1)
				if comp.SelectionStats().CacheHit {
					hits.Add(1)
				}
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopChurn)
	churner.Wait()
	for _, err := range errs {
		if err != nil {
			return ThroughputResult{}, err
		}
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := ThroughputResult{
		Ops:     int(done.Load()),
		Elapsed: elapsed,
		Partial: cancelled.Load(),
	}
	if res.Ops > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
		res.P50 = all[len(all)/2]
		res.P99 = all[min(len(all)-1, len(all)*99/100)]
		res.HitRate = float64(hits.Load()) / float64(res.Ops)
		res.SLOAttainment = r.slo.Attainment()
	}
	return res, nil
}

// expServingThroughput is the closed-loop serving experiment: ops/sec
// and latency quantiles per client count, over the churning registry,
// with the plan cache warm — the steady-state regime the ROADMAP
// north-star targets (BENCH_qassa.json records the same run as
// BenchmarkThroughput).
func expServingThroughput() *Experiment {
	return &Experiment{
		ID:    "serving",
		Paper: "§serving (ROADMAP)",
		Title: "Closed-loop serving throughput: concurrent clients, warm plan cache, churning registry",
		Expected: "ops/sec scales with clients while the hit rate stays high; " +
			"periodic touched-capability churn forces fresh selections without stalling the loop",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			tbl := NewTable("Serving throughput (closed loop)",
				"clients", "ops", "ops/sec", "p50 (ms)", "p99 (ms)", "cache hit rate", "slo attainment")
			ops := pick(cfg, 200, 2000)
			for _, clients := range pick(cfg, []int{1, 4}, []int{1, 2, 4, 8}) {
				rig, err := NewThroughputRig(ThroughputConfig{
					Clients: clients, Churn: true, Seed: cfg.Seed, Ctx: cfg.Ctx,
				})
				if err != nil {
					return nil, err
				}
				if err := rig.Warm(); err != nil {
					return nil, err
				}
				res, err := rig.Run(ops)
				if err != nil {
					return nil, err
				}
				tbl.AddRow(clients, res.Ops, res.OpsPerSec,
					float64(res.P50)/float64(time.Millisecond),
					float64(res.P99)/float64(time.Millisecond),
					res.HitRate, res.SLOAttainment)
				if res.Partial {
					tbl.AddNote("interrupted at %d clients: partial results above", clients)
					break
				}
			}
			return tbl, nil
		},
	}
}
