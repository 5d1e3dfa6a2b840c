package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qasom"
	"qasom/internal/obs"
	"qasom/internal/semantics"
)

// traceTag marks the trace IDs the benchmark assigns to its own ops, so
// flight records of traced ops can be joined back to the benchmark's spans.
const traceTag = uint64(0x7b) << 56

// runner drives one set-up middleware instance through the phases of a
// run. Ops are numbered globally across phases; op n runs
// inputs.ops[n mod len].
type runner struct {
	in   *inputs
	mw   *qasom.Middleware
	hub  *obs.Hub
	chk  *checker
	next int64 // number of the next op to run

	acc     []workerAcc
	tracing bool
	spans   [][]span // per worker, preallocated; filled only while tracing
}

// workerAcc is one worker's tally, written only by that worker while a
// phase runs and read after it ends. Padded against false sharing.
type workerAcc struct {
	ops, errs, shed     int64
	composes, feasible  int64
	utility             float64
	executes, completed int64
	_                   [64]byte
}

// span is one benchmark-side span around a call into the middleware,
// with the attribution that call returned.
type span struct {
	n          int64
	kind       opKind // opCompose for Compose, opComposeExecute for Execute, else the write kind
	start, end int64  // ns since the phase began
	stats      qasom.SelectionStats
	report     qasom.Report
}

// setup builds a middleware instance over the workload's inputs: New,
// ontology concepts, the population, task classes, reference answers and
// warm-up. flightCap > 0 enlarges the flight recorder so a traced phase
// keeps every record.
func setup(in *inputs, seed int64, workers, flightCap int) (*runner, error) {
	hub := obs.NewHub()
	if flightCap > 0 {
		hub.Flight = obs.NewFlightRecorder(flightCap)
	}
	mw, err := newPopulated(in, qasom.Options{Seed: seed, Obs: hub})
	if err != nil {
		return nil, err
	}
	r := &runner{in: in, mw: mw, hub: hub, chk: &checker{in: in}, acc: make([]workerAcc, workers)}
	if in.reference {
		if r.chk.ref, err = referenceAnswers(in, seed); err != nil {
			mw.Close()
			return nil, err
		}
		for i := range in.requests {
			if _, err := mw.Compose(in.requests[i]); err != nil {
				mw.Close()
				return nil, fmt.Errorf("warm-up request %d: %w", i, err)
			}
		}
	}
	r.closedLoop(0, int64(in.warm))
	r.resetAcc()
	return r, nil
}

func newPopulated(in *inputs, opts qasom.Options) (*qasom.Middleware, error) {
	mw, err := qasom.New(opts)
	if err != nil {
		return nil, err
	}
	onto := mw.Ontology()
	for _, c := range in.concepts {
		var parents []semantics.ConceptID
		if c.parent != "" {
			parents = append(parents, semantics.ConceptID(c.parent))
		}
		if err := onto.AddConcept(semantics.ConceptID(c.id), parents...); err != nil {
			mw.Close()
			return nil, fmt.Errorf("concept %s: %w", c.id, err)
		}
	}
	for _, s := range in.services {
		if err := mw.Publish(s); err != nil {
			mw.Close()
			return nil, fmt.Errorf("publish %s: %w", s.ID, err)
		}
	}
	for _, c := range in.classes {
		if err := mw.RegisterTaskClass(c.name, c.docs...); err != nil {
			mw.Close()
			return nil, err
		}
	}
	return mw, nil
}

// referenceAnswers composes every request on a cache-disabled instance
// over the same population.
func referenceAnswers(in *inputs, seed int64) ([]map[string]string, error) {
	mw, err := newPopulated(in, qasom.Options{Seed: seed, Obs: obs.NewHub(), SelectionCacheSize: -1})
	if err != nil {
		return nil, err
	}
	defer mw.Close()
	ref := make([]map[string]string, len(in.requests))
	for i := range in.requests {
		comp, err := mw.Compose(in.requests[i])
		if err != nil {
			return nil, fmt.Errorf("reference request %d: %w", i, err)
		}
		ref[i] = comp.Bindings()
	}
	return ref, nil
}

func (r *runner) resetAcc() {
	for i := range r.acc {
		r.acc[i] = workerAcc{}
	}
}

func (r *runner) total() workerAcc {
	var t workerAcc
	for _, a := range r.acc {
		t.ops += a.ops
		t.errs += a.errs
		t.shed += a.shed
		t.composes += a.composes
		t.feasible += a.feasible
		t.utility += a.utility
		t.executes += a.executes
		t.completed += a.completed
	}
	return t
}

// do runs op n on worker w and reports whether it succeeded.
func (r *runner) do(w int, n int64, base time.Time) bool {
	o := r.in.ops[n%int64(len(r.in.ops))]
	acc := &r.acc[w]
	acc.ops++
	if o.kind > opComposeExecute {
		r.write(w, n, o, base)
		return true
	}
	ctx := context.Background()
	var start int64
	if r.tracing {
		ctx = obs.WithRemoteParent(ctx, obs.SpanContext{TraceID: traceTag | uint64(n), SpanID: 1})
		start = int64(time.Since(base))
	}
	comp, err := r.mw.ComposeContext(ctx, r.in.requests[o.idx])
	if r.tracing {
		s := span{n: n, kind: opCompose, start: start, end: int64(time.Since(base))}
		if err == nil {
			s.stats = comp.SelectionStats()
		}
		r.record(w, s)
	}
	if err != nil {
		acc.errs++
		return false
	}
	acc.composes++
	acc.utility += comp.Utility()
	if comp.Feasible() {
		acc.feasible++
	}
	if o.check {
		r.chk.check(o.idx, comp)
	}
	if o.kind == opComposeExecute {
		if r.tracing {
			start = int64(time.Since(base))
		}
		rep, err := r.mw.Execute(ctx, comp)
		acc.executes++
		if err == nil && rep.Completed {
			acc.completed++
		}
		if r.tracing {
			r.record(w, span{n: n, kind: opComposeExecute, start: start, end: int64(time.Since(base)), report: *rep})
		}
	}
	return true
}

func (r *runner) write(w int, n int64, o op, base time.Time) {
	wr := &r.in.writes[o.idx]
	var start int64
	if r.tracing {
		start = int64(time.Since(base))
	}
	switch o.kind {
	case opPublish:
		if err := r.mw.Publish(wr.svc); err != nil {
			r.acc[w].errs++
		}
	case opWithdraw:
		r.mw.Withdraw(wr.id)
	case opSetDown:
		r.mw.SetDown(wr.id)
	case opSetUp:
		r.mw.SetUp(wr.id)
	case opDegrade:
		if err := r.mw.Degrade(wr.id, wr.deltas); err != nil {
			r.acc[w].errs++
		}
	}
	if r.tracing {
		r.record(w, span{n: n, kind: o.kind, start: start, end: int64(time.Since(base))})
	}
}

func (r *runner) record(w int, s span) {
	if len(r.spans[w]) < cap(r.spans[w]) {
		r.spans[w] = append(r.spans[w], s)
	}
}

// closedResult is one closed-loop phase.
type closedResult struct {
	ops       int64
	wall, cpu time.Duration
}

// closedLoop runs len(r.acc) clients that each send their next op as soon
// as the previous one returns, for d, or until maxOps ops ran when
// maxOps > 0 (d = 0: no time limit).
func (r *runner) closedLoop(d time.Duration, maxOps int64) closedResult {
	var claimed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	base := time.Now()
	first := r.next
	cpu0 := processCPU()
	for w := range r.acc {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				k := claimed.Add(1) - 1
				if maxOps > 0 && k >= maxOps {
					return
				}
				r.do(w, first+k, base)
			}
		}(w)
	}
	if d > 0 {
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-finished:
			t.Stop()
		}
		stop.Store(true)
	}
	wg.Wait()
	res := closedResult{wall: time.Since(base), cpu: processCPU() - cpu0}
	res.ops = claimed.Load() // every claim below maxOps ran, stop or not
	if maxOps > 0 {
		res.ops = min(res.ops, maxOps)
	}
	r.next = first + res.ops
	return res
}

// arrival is one open-loop op; times are ns since the phase began.
// claim is when a free worker took it, start when it was sent.
type arrival struct {
	due, claim, start, end int64
	ok, shed               bool
}

// shedAfter bounds the backlog: an arrival a worker reaches later than
// this after its due time is dropped and counted as failed.
const shedAfter = int64(time.Second)

// openLoop offers Poisson arrivals at rate for d, regardless of how fast
// the middleware answers. Workers claim arrivals in due order; an idle
// worker waits for its arrival's due time by sleeping until spin before
// it and spinning the rest, because the runtime rounds short sleeps up
// to ~1 ms. null runs a server that answers instantly: the floor.
func (r *runner) openLoop(rate float64, d time.Duration, spin time.Duration, seed int64, null bool) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var arr []arrival
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		arr = append(arr, arrival{due: int64(t * 1e9)})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	first := r.next
	base := time.Now()
	for w := range r.acc {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(arr)) {
					return
				}
				a := &arr[i]
				a.claim = int64(time.Since(base))
				if a.claim-a.due > shedAfter {
					a.shed = true
					r.acc[w].shed++
					continue
				}
				waitUntil(base, a.due, spin)
				a.start = int64(time.Since(base))
				if null {
					a.ok = true
				} else {
					a.ok = r.do(w, first+i, base)
				}
				a.end = int64(time.Since(base))
			}
		}(w)
	}
	wg.Wait()
	if !null {
		r.next = first + int64(len(arr))
	}
	return arr
}

func waitUntil(base time.Time, due int64, spin time.Duration) {
	for {
		rem := time.Duration(due - int64(time.Since(base)))
		if rem <= 0 {
			return
		}
		if rem > spin {
			time.Sleep(rem - spin)
		} else {
			runtime.Gosched()
		}
	}
}

// calibrateSpin measures how far 100 µs sleeps overshoot on the machine and
// returns the spin window that covers 95% of them.
func calibrateSpin() time.Duration {
	const want = 100 * time.Microsecond
	over := make([]float64, 40)
	for i := range over {
		t := time.Now()
		time.Sleep(want)
		over[i] = float64(time.Since(t) - want)
	}
	sort.Float64s(over)
	spin := time.Duration(quantile(over, 0.95)) + want
	return min(max(spin, 200*time.Microsecond), 5*time.Millisecond)
}

// round is one closed-loop window and the host speed measured right
// after it.
type round struct {
	closedResult
	ref, steal float64
}

// capacityRounds splits d into k closed-loop windows, each followed by a
// reference-kernel round that takes a fifth of the window's share.
func (r *runner) capacityRounds(d time.Duration, k int) []round {
	rounds := make([]round, 0, k)
	for i := 0; i < k; i++ {
		st0 := readCPUTimes()
		c := r.closedLoop(d*4/5/time.Duration(k), 0)
		st := stealFrac(st0, readCPUTimes())
		rounds = append(rounds, round{c, refRound(len(r.acc), d/5/time.Duration(k)), st})
	}
	return rounds
}
