// Command qbench is the end-to-end benchmark of the QASOM middleware. It
// drives the public qasom API in-process under one named workload,
// checks a seeded sample of answers, and prints every metric by name with
// its unit and sample count; the last line of standard output is one JSON
// object with the gated metrics.
//
//	bash qbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs a separate,
// traced pass and reports the per-layer metrics. The process exits 1 when
// an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one run.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	setups   int  // set-ups timed for setup_s; the last one is measured
	corrupt  bool // self-test: corrupt one checked answer
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxTracedOps bounds the traced closed-loop phase so the flight recorder
// retains every record it produced.
const maxTracedOps = 16384

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-warm, select-cold or adapt-churn")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadNamed(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "qbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, printing the report to out.
func run(cfg config, out io.Writer) (*result, error) {
	w := cfg.workload
	workers := runtime.NumCPU()
	steal0 := readCPUTimes()
	fmt.Fprintf(out, "qbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(out, "workload rate=%g/s limit=%v clients=%d why=%q\n", w.rate, w.limit, workers, w.why)

	in := w.gen(cfg.seed)
	setups, flightCap := cfg.setups, 0
	if cfg.trace {
		setups, flightCap = 1, 2*maxTracedOps
	}
	var setupRaw, setupNorm []float64
	var r *runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.mw.Close()
			runtime.GC()
		}
		ref := refRound(workers, 100*time.Millisecond)
		t := time.Now()
		var err error
		if r, err = setup(in, cfg.seed, workers, flightCap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupRaw = append(setupRaw, time.Since(t).Seconds())
		setupNorm = append(setupNorm, setupRaw[i]*refCPUus/ref)
	}
	defer r.mw.Close()
	r.chk.corrupt.Store(cfg.corrupt)

	m := &measurement{r: r, w: w, seed: cfg.seed, total: time.Duration(cfg.seconds * float64(time.Second)), spin: calibrateSpin()}
	if cfg.trace {
		if err := m.traced(); err != nil {
			return nil, err
		}
		m.gated = append(m.gated, metric{"host.steal_frac", stealFrac(steal0, readCPUTimes()), "ratio", 1})
	} else {
		m.endToEnd(setupRaw, setupNorm)
		m.info = append(m.info, metric{"host.steal_frac", stealFrac(steal0, readCPUTimes()), "ratio", 1})
	}

	// The JSON line counts the ops sent to the middleware and those that
	// errored or failed the output check. Shed arrivals were never sent:
	// how many the generator drops depends on how much CPU the host gave
	// the run, not on the program's answers, so they count only in
	// fail_frac and slo_miss_frac.
	checked, fails := r.chk.checked.Load(), r.chk.failures.Load()
	res := &result{
		Correct:   fails == 0 && checked > 0,
		Attempted: m.attempted,
		Failed:    m.failed + fails,
		Metrics:   map[string]jsonMetric{},
	}
	offered := m.attempted + m.shed
	m.info = append(m.info,
		metric{"fail_frac", ratio(float64(res.Failed+m.shed), float64(offered)), "ratio", offered},
		metric{"shed", float64(m.shed), "count", offered},
	)
	for _, x := range m.gated {
		fmt.Fprintf(out, "%-34s %16.6f %-6s n=%d\n", x.name, x.value, x.unit, x.n)
		res.Metrics[x.name] = jsonMetric{x.value, x.unit}
	}
	for _, x := range m.info {
		fmt.Fprintf(out, "%-34s %16.6f %-6s n=%d (not gated)\n", x.name, x.value, x.unit, x.n)
	}
	fmt.Fprintf(out, "checks checked=%d failed=%d\n", checked, fails)
	if err := r.chk.err(); err != nil {
		fmt.Fprintln(out, "check failure:", err)
	}
	return res, nil
}

// measurement collects one run's phases: gated metrics go into the JSON
// line, info metrics are printed only.
type measurement struct {
	r     *runner
	w     workload
	seed  int64
	total time.Duration
	spin  time.Duration

	gated, info             []metric
	attempted, failed, shed int64
}

// tally moves the workers' counts into the run totals.
func (m *measurement) tally() workerAcc {
	t := m.r.total()
	m.attempted += t.ops
	m.failed += t.errs
	m.shed += t.shed
	m.r.resetAcc()
	return t
}

// endToEnd measures the end-to-end metrics: 40% of the run in
// closed-loop rounds, 50% open-loop at the workload's rate, 10% on the
// null server at the same rate. Times are scaled to the reference host
// speed (see refCPUus); the raw values are printed beside them.
func (m *measurement) endToEnd(setupRaw, setupNorm []float64) {
	r, w := m.r, m.w
	rounds := r.capacityRounds(m.total*2/5, 20)
	cl := m.tally()
	arr := r.openLoop(w.rate, m.total/2, m.spin, m.seed, false)
	ol := m.tally()
	floor := latencies(r.openLoop(w.rate, m.total/10, m.spin, m.seed, true))

	var cpuRaw, cpuNorm, capRaw, capNorm, refs []float64
	for _, rd := range rounds {
		speed := rd.ref / refCPUus
		cpu := us(int64(rd.cpu)) / float64(rd.ops)
		rate := float64(rd.ops) / rd.wall.Seconds()
		cpuRaw, cpuNorm = append(cpuRaw, cpu), append(cpuNorm, cpu/speed)
		capRaw, capNorm = append(capRaw, rate), append(capNorm, rate*speed/(1-rd.steal))
		refs = append(refs, rd.ref)
	}
	comp := cl.composes + ol.composes
	m.gated = []metric{
		{"setup_s", median(setupNorm), "s", int64(len(setupNorm))},
		{"capacity_ops_s", median(capNorm), "ops/s", int64(len(capNorm))},
		{"cpu_us_per_op", median(cpuNorm), "us", int64(len(cpuNorm))},
		{"utility_mean", ratio(cl.utility+ol.utility, float64(comp)), "ratio", comp},
		{"feasible_frac", ratio(float64(cl.feasible+ol.feasible), float64(comp)), "ratio", comp},
		{"rss_peak_mb", peakRSSMB(), "MB", 1},
	}
	lat := latencies(arr)
	n := int64(len(lat))
	m.info = []metric{
		{"setup_s.raw", median(setupRaw), "s", int64(len(setupRaw))},
		{"capacity_ops_s.raw", median(capRaw), "ops/s", int64(len(capRaw))},
		{"cpu_us_per_op.raw", median(cpuRaw), "us", int64(len(cpuRaw))},
		{"host.ref_us", median(refs), "us", int64(len(refs))},
		{"p50_ms", quantile(lat, 0.5), "ms", n},
		{"p99_ms", quantile(lat, 0.99), "ms", n},
		{"gen.floor_p50_ms", quantile(floor, 0.5), "ms", int64(len(floor))},
		{"gen.floor_p99_ms", quantile(floor, 0.99), "ms", int64(len(floor))},
		{"slo_miss_frac", ratio(float64(sloMisses(arr, w.limit)), float64(n)), "ratio", n},
	}
	if exec := cl.executes + ol.executes; exec > 0 {
		m.info = append(m.info, metric{"exec_completed_frac", ratio(float64(cl.completed+ol.completed), float64(exec)), "ratio", exec})
	}
}

// traced measures the per-layer metrics. Tracing overhead comes first:
// 8 pairs of short untraced and traced closed-loop windows (30% of the
// run), alternated so the host's drift cancels. Then one traced
// closed-loop phase (30% or maxTracedOps ops) is attributed to layers, an
// open-loop phase gives the generator's own timings, the null server its
// floor, and a side pass times BPEL parsing.
func (m *measurement) traced() error {
	r, w := m.r, m.w
	for range r.acc {
		r.spans = append(r.spans, make([]span, 0, 2*maxTracedOps))
	}
	const pairs = 8
	var overhead, cpuU, cpuT []float64
	for i := 0; i < pairs; i++ {
		u := r.closedLoop(m.total*3/10/(2*pairs), 0)
		r.tracing = true
		t := r.closedLoop(m.total*3/10/(2*pairs), 0)
		r.tracing = false
		cu, ct := us(int64(u.cpu))/float64(u.ops), us(int64(t.cpu))/float64(t.ops)
		cpuU, cpuT, overhead = append(cpuU, cu), append(cpuT, ct), append(overhead, ct/cu-1)
		for w := range r.spans {
			r.spans[w] = r.spans[w][:0]
		}
	}
	m.tally()
	a := takeSnapshot(r)
	r.tracing = true
	r.closedLoop(m.total*3/10, maxTracedOps)
	r.tracing = false
	b := takeSnapshot(r)
	m.tally()
	m.gated = layerMetrics(r, a, b)

	arr := r.openLoop(w.rate, m.total/4, m.spin, m.seed, false)
	m.tally()
	floor := latencies(r.openLoop(w.rate, m.total/10, m.spin, m.seed, true))
	parse, err := parseSidePass(r.in.docs, 50)
	if err != nil {
		return err
	}
	m.gated = append(m.gated, generatorMetrics(arr)...)
	m.gated = append(m.gated,
		metric{"gen.floor_p50_us", quantile(floor, 0.5) * 1e3, "us", int64(len(floor))},
		metric{"gen.floor_p99_us", quantile(floor, 0.99) * 1e3, "us", int64(len(floor))},
		parse,
		metric{"trace.overhead_frac", median(overhead), "ratio", pairs},
	)
	m.info = []metric{
		{"untraced.cpu_us_per_op.raw", median(cpuU), "us", pairs},
		{"traced.cpu_us_per_op.raw", median(cpuT), "us", pairs},
	}
	return nil
}

// sloMisses counts arrivals that were shed, failed, or answered later
// than limit after their due time.
func sloMisses(arr []arrival, limit time.Duration) int64 {
	var n int64
	for _, a := range arr {
		if a.shed || !a.ok || a.end-a.due > int64(limit) {
			n++
		}
	}
	return n
}
