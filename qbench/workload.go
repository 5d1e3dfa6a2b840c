package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"qasom"
)

// workload is one named traffic mix. Its open-loop rate and latency limit
// are part of its definition, so later changes are compared at the same
// offered load.
type workload struct {
	name  string
	rate  float64       // open-loop offered rate, ops/s
	limit time.Duration // open-loop latency limit for slo_miss_frac
	why   string
	gen   func(seed int64) *inputs
}

var workloads = []workload{
	{
		name:  "serve-warm",
		rate:  6000,
		limit: 2 * time.Millisecond,
		why:   "repeat users, Zipf over 64 request shapes: warm plan-cache path (BPEL re-parse, plan key, copy-out, telemetry); lookup and QASSA stay idle",
		gen:   genServeWarm,
	},
	{
		name:  "select-cold",
		rate:  80,
		limit: 25 * time.Millisecond,
		why:   "every request new, 10k unrelated services: registry lookup, semantic matching and QASSA local/global; the plan cache is bypassed",
		gen:   genSelectCold,
	},
	{
		name:  "adapt-churn",
		rate:  950,
		limit: 5 * time.Millisecond,
		why:   "Compose+Execute beside 15% writes to touched capabilities: epoch invalidation, failover, substitution index and monitor",
		gen:   genAdaptChurn,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind uint8

const (
	opCompose        opKind = iota // Compose
	opComposeExecute               // Compose, then Execute the composition
	opPublish
	opWithdraw
	opSetDown
	opSetUp
	opDegrade
)

// op is one scheduled operation. idx indexes inputs.requests for compose
// kinds and inputs.writes otherwise; check marks the seeded sample whose
// answer is verified.
type op struct {
	kind  opKind
	check bool
	idx   int32
}

// write is the argument of one scheduled write op.
type write struct {
	svc    qasom.Service // opPublish
	id     string        // every other write kind
	deltas map[string]float64
}

// concept is one capability concept the workload adds to the ontology.
type concept struct{ id, parent string }

// taskClass is a registered task class and its behaviour documents.
type taskClass struct {
	name string
	docs []string
}

// inputs is everything a workload feeds the middleware, generated from the
// seed alone before set-up starts. The op sequence is cycled.
type inputs struct {
	concepts []concept
	services []qasom.Service
	classes  []taskClass
	docs     []string // every BPEL document, for the parse side pass
	requests []qasom.Request
	reqActs  []map[string]string // per request: activity ID → required concept
	writes   []write
	ops      []op
	// warm is the number of ops set-up runs before measuring.
	warm int
	// reference asks set-up to compute each request's bindings on a
	// cache-disabled instance and check sampled answers against them.
	reference bool
	// capOf maps every service ID the run may publish to its capability;
	// parent maps each workload concept to its parent.
	capOf  map[string]string
	parent map[string]string
}

// The standard property set and the direction of each constraint.
var (
	propNames = []string{"responseTime", "price", "availability", "reliability", "throughput"}
	maximized = map[string]bool{"availability": true, "reliability": true, "throughput": true}
)

const (
	opCycle    = 1 << 16 // ops before the sequence repeats
	checkEvery = 32      // one op in checkEvery is a checked sample
)

func randQoS(rng *rand.Rand) map[string]float64 {
	return map[string]float64{
		"responseTime": 20 + 180*rng.Float64(),
		"price":        1 + 19*rng.Float64(),
		"availability": 0.9 + 0.099*rng.Float64(),
		"reliability":  0.85 + 0.149*rng.Float64(),
		"throughput":   10 + 90*rng.Float64(),
	}
}

func newInputs() *inputs {
	return &inputs{capOf: map[string]string{}, parent: map[string]string{}}
}

func (in *inputs) addConcept(id, parent string) {
	in.concepts = append(in.concepts, concept{id, parent})
	in.parent[id] = parent
}

// addServices publishes n services of capability cap named prefix-<i>.
func (in *inputs) addServices(rng *rand.Rand, prefix, capability string, n int, failProb float64) {
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		in.services = append(in.services, qasom.Service{
			ID: id, Capability: capability, QoS: randQoS(rng),
			FailProb: failProb, Noise: 0.05,
		})
		in.capOf[id] = capability
	}
}

// block is one control construct of a generated BPEL document; the
// activities it invokes are numbered from its first index.
type block struct {
	open, close string
	acts        int
	wrap        []string // per-activity wrapper (branch) or nil
}

var blocks = []block{
	{acts: 1},
	{open: "<flow>", close: "</flow>", acts: 2},
	{open: "<if>", close: "</if>", acts: 2, wrap: []string{`<branch probability="0.6">`, `<branch probability="0.4">`}},
	{open: `<while minIterations="1" maxIterations="3" expectedIterations="2">`, close: "</while>", acts: 1},
	{open: "<sequence>", close: "</sequence>", acts: 2},
}

// bpelDoc renders an 8-activity document (a0..a7) whose control blocks
// are rotated by variant: sequence, flow, if and while all appear.
func bpelDoc(name, processConcept string, caps []string, variant int) (string, map[string]string) {
	var b strings.Builder
	acts := make(map[string]string, len(caps))
	fmt.Fprintf(&b, "<process name=%q concept=%q><sequence>", name, processConcept)
	next := 0
	for k := range blocks {
		bl := blocks[(k+variant)%len(blocks)]
		b.WriteString(bl.open)
		for j := 0; j < bl.acts; j++ {
			id := fmt.Sprintf("a%d", next)
			acts[id] = caps[next]
			if bl.wrap != nil {
				b.WriteString(bl.wrap[j])
			}
			fmt.Fprintf(&b, "<invoke activity=%q concept=%q/>", id, caps[next])
			if bl.wrap != nil {
				b.WriteString("</branch>")
			}
			next++
		}
		b.WriteString(bl.close)
	}
	b.WriteString("</sequence></process>")
	return b.String(), acts
}

// window returns k consecutive elements of pool starting at off, wrapping.
// Task documents are fixed by the workload definition, not by the seed,
// so every seed offers the same plan keys and candidate-list sizes.
func window(pool []string, off, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = pool[(off+i)%len(pool)]
	}
	return out
}

// zipfCDF is the cumulative popularity of n ranks with weight 1/(rank+1).
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func drawRank(rng *rand.Rand, cdf []float64) int {
	return sort.SearchFloat64s(cdf, rng.Float64())
}

// markChecks flags a seeded sample of compose ops, one in checkEvery.
func (in *inputs) markChecks(rng *rand.Rand) {
	for i := range in.ops {
		if in.ops[i].kind <= opComposeExecute && rng.Intn(checkEvery) == 0 {
			in.ops[i].check = true
		}
	}
}

// genServeWarm: 4 documents × 16 constraint/weight presets = 64 request
// shapes under Zipf popularity (fixed rank order, so the traffic shares do
// not depend on the seed), ℓ=20 services per capability, and 2% of ops
// churning capabilities no task touches.
func genServeWarm(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := newInputs()
	in.reference, in.warm = true, 2000
	in.addConcept("SwTask", "")
	var caps []string
	for c := 0; c < 12; c++ {
		id := fmt.Sprintf("SwCap%02d", c)
		in.addConcept(id, "")
		caps = append(caps, id)
		in.addServices(rng, fmt.Sprintf("sw-c%02d", c), id, 20, 0)
	}
	const idleCaps, idleSlots = 4, 4
	for c := 0; c < idleCaps; c++ {
		id := fmt.Sprintf("SwIdle%d", c)
		in.addConcept(id, "")
		in.addServices(rng, fmt.Sprintf("sw-i%d", c), id, 8, 0)
	}
	var docActs []map[string]string
	for d := 0; d < 4; d++ {
		doc, acts := bpelDoc(fmt.Sprintf("sw-d%d", d), "SwTask", window(caps, 3*d, 8), d)
		in.docs = append(in.docs, doc)
		docActs = append(docActs, acts)
	}
	weights := []map[string]float64{
		nil,
		{"responseTime": 4, "price": 1, "availability": 1, "reliability": 1, "throughput": 1},
		{"responseTime": 1, "price": 4, "availability": 1, "reliability": 1, "throughput": 1},
		{"responseTime": 1, "price": 1, "availability": 4, "reliability": 2, "throughput": 1},
	}
	// Bound levels: none, loose, medium (feasible for any draw) and
	// tight (responseTime ≤ 150 is below the 8×20 ms floor: infeasible).
	bounds := [][]qasom.Constraint{
		nil,
		{{Property: "responseTime", Bound: 2000}, {Property: "price", Bound: 400}},
		{{Property: "responseTime", Bound: 900}, {Property: "availability", Bound: 0.3}},
		{{Property: "responseTime", Bound: 150}},
	}
	for d := range in.docs {
		for _, w := range weights {
			for _, bs := range bounds {
				in.requests = append(in.requests, qasom.Request{Task: in.docs[d], Weights: w, Constraints: bs})
				in.reqActs = append(in.reqActs, docActs[d])
			}
		}
	}
	// Rank order interleaves documents so every document is popular.
	rank := make([]int32, len(in.requests))
	for r := range rank {
		rank[r] = int32((r%4)*16 + (r/4)%16)
	}
	cdf := zipfCDF(len(rank))
	present := make([]bool, idleCaps*idleSlots)
	for i := 0; i < opCycle; i++ {
		if rng.Float64() < 0.02 {
			s := rng.Intn(len(present))
			c, j := s/idleSlots, 8+s%idleSlots
			id := fmt.Sprintf("sw-i%d-%d", c, j)
			in.capOf[id] = fmt.Sprintf("SwIdle%d", c)
			if present[s] {
				in.writes = append(in.writes, write{id: id})
				in.ops = append(in.ops, op{kind: opWithdraw, idx: int32(len(in.writes) - 1)})
			} else {
				in.writes = append(in.writes, write{svc: qasom.Service{ID: id, Capability: in.capOf[id], QoS: randQoS(rng)}})
				in.ops = append(in.ops, op{kind: opPublish, idx: int32(len(in.writes) - 1)})
			}
			present[s] = !present[s]
			continue
		}
		in.ops = append(in.ops, op{kind: opCompose, idx: rank[drawRank(rng, cdf)]})
	}
	in.markChecks(rng)
	return in
}

// genSelectCold: weights and bounds are fresh per request (a pool far
// larger than the plan cache, so no plan key is ever served warm), ℓ=100
// per concrete capability, two abstract activities per task matched by
// subsumption, and 10k unrelated services in the registry.
func genSelectCold(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := newInputs()
	in.warm = 50
	in.addConcept("ScTask", "")
	var concrete []string
	for c := 0; c < 8; c++ {
		id := fmt.Sprintf("ScCap%02d", c)
		in.addConcept(id, "")
		concrete = append(concrete, id)
		in.addServices(rng, fmt.Sprintf("sc-c%02d", c), id, 100, 0)
	}
	abstract := []string{"ScPay", "ScShip"}
	for _, a := range abstract {
		in.addConcept(a, "")
		for _, kind := range []string{"A", "B"} {
			id := a + kind
			in.addConcept(id, a)
			in.addServices(rng, "sc-"+strings.ToLower(id), id, 100, 0)
		}
	}
	for c := 0; c < 100; c++ {
		id := fmt.Sprintf("ScIdle%03d", c)
		in.addConcept(id, "")
		in.addServices(rng, fmt.Sprintf("sc-i%03d", c), id, 100, 0)
	}
	var docActs []map[string]string
	for d := 0; d < 4; d++ {
		caps := window(concrete, 2*d, 6)
		caps = append(caps[:2], append([]string{abstract[0]}, append(caps[2:5], abstract[1], caps[5])...)...)
		doc, acts := bpelDoc(fmt.Sprintf("sc-d%d", d), "ScTask", caps, d)
		in.docs = append(in.docs, doc)
		docActs = append(docActs, acts)
	}
	const pool = 4096 // ≫ the 128-entry plan cache: a recycled key was evicted long ago
	for i := 0; i < pool; i++ {
		d := rng.Intn(len(in.docs))
		w := make(map[string]float64, len(propNames))
		for _, p := range propNames {
			w[p] = 0.05 + 0.95*rng.Float64()
		}
		// Bounds are loose, or (every 7th request) below the 8×20 ms
		// responseTime floor, so the feasible share does not hinge on how
		// good one seed's population happens to be.
		rt := 600 + 600*rng.Float64()
		if i%7 == 0 {
			rt = 100 + 50*rng.Float64()
		}
		in.requests = append(in.requests, qasom.Request{
			Task:    in.docs[d],
			Weights: w,
			Constraints: []qasom.Constraint{
				{Property: "responseTime", Bound: rt},
				{Property: "price", Bound: 100 + 100*rng.Float64()},
				{Property: "availability", Bound: 0.2 + 0.2*rng.Float64()},
			},
		})
		in.reqActs = append(in.reqActs, docActs[d])
	}
	for i := 0; i < opCycle; i++ {
		in.ops = append(in.ops, op{kind: opCompose, idx: int32(i % pool)})
	}
	in.markChecks(rng)
	return in
}

// genAdaptChurn: four task classes of two behaviours each, referenced by
// behaviour name; ℓ=8 permanent services per capability with a small
// failure probability; 15% of ops write to the capabilities the tasks
// touch (publish/withdraw of churn slots, SetDown/SetUp, Degrade).
func genAdaptChurn(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := newInputs()
	in.warm = 500
	in.addConcept("AcTask", "")
	const nCaps, perm, slots, maxDown = 10, 8, 2, 2
	var caps []string
	for c := 0; c < nCaps; c++ {
		id := fmt.Sprintf("AcCap%02d", c)
		in.addConcept(id, "")
		caps = append(caps, id)
		in.addServices(rng, fmt.Sprintf("ac-c%02d", c), id, perm, 0.02)
		for s := 0; s < slots; s++ {
			in.capOf[fmt.Sprintf("ac-c%02d-x%d", c, s)] = id
		}
	}
	var names []string
	var nameActs []map[string]string
	for k := 0; k < 4; k++ {
		class := taskClass{name: fmt.Sprintf("ac-k%d", k)}
		for v, suffix := range []string{"a", "b"} {
			name := class.name + suffix
			doc, acts := bpelDoc(name, "AcTask", window(caps, 2*k+5*v, 8), 2*k+v)
			class.docs = append(class.docs, doc)
			in.docs = append(in.docs, doc)
			names = append(names, name)
			nameActs = append(nameActs, acts)
		}
		in.classes = append(in.classes, class)
	}
	presets := [][]qasom.Constraint{nil, {{Property: "responseTime", Bound: 3000}}}
	for i, n := range names {
		for _, p := range presets {
			in.requests = append(in.requests, qasom.Request{Task: n, Constraints: p})
			in.reqActs = append(in.reqActs, nameActs[i])
		}
	}
	present := make([]bool, nCaps*slots)
	down := make([][]bool, nCaps)
	for c := range down {
		down[c] = make([]bool, perm)
	}
	addWrite := func(k opKind, w write) {
		in.writes = append(in.writes, w)
		in.ops = append(in.ops, op{kind: k, idx: int32(len(in.writes) - 1)})
	}
	for i := 0; i < opCycle; i++ {
		if rng.Float64() >= 0.15 {
			in.ops = append(in.ops, op{kind: opComposeExecute, idx: int32(rng.Intn(len(in.requests)))})
			continue
		}
		c := rng.Intn(nCaps)
		switch u := rng.Float64(); {
		case u < 0.4: // churn slot: publish if absent, withdraw if present
			s := rng.Intn(slots)
			id := fmt.Sprintf("ac-c%02d-x%d", c, s)
			if present[c*slots+s] {
				addWrite(opWithdraw, write{id: id})
			} else {
				addWrite(opPublish, write{svc: qasom.Service{ID: id, Capability: caps[c], QoS: randQoS(rng), FailProb: 0.02, Noise: 0.05}})
			}
			present[c*slots+s] = !present[c*slots+s]
		case u < 0.8: // SetDown an up service, or SetUp once maxDown are down
			var ups, downs []int
			for j, d := range down[c] {
				if d {
					downs = append(downs, j)
				} else {
					ups = append(ups, j)
				}
			}
			if len(downs) >= maxDown || (len(downs) > 0 && rng.Intn(2) == 0) {
				j := downs[rng.Intn(len(downs))]
				down[c][j] = false
				addWrite(opSetUp, write{id: fmt.Sprintf("ac-c%02d-%d", c, j)})
			} else {
				j := ups[rng.Intn(len(ups))]
				down[c][j] = true
				addWrite(opSetDown, write{id: fmt.Sprintf("ac-c%02d-%d", c, j)})
			}
		default: // run-time QoS drift, advertisement unchanged
			delta := 5 + 25*rng.Float64()
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			addWrite(opDegrade, write{id: fmt.Sprintf("ac-c%02d-%d", c, rng.Intn(perm)), deltas: map[string]float64{"responseTime": delta}})
		}
	}
	in.markChecks(rng)
	return in
}

// satisfied evaluates a constraint set against aggregated QoS the way the
// paper defines feasibility: ≤ for minimized, ≥ for maximized properties.
func satisfied(cs []qasom.Constraint, agg map[string]float64) bool {
	for _, c := range cs {
		v, ok := agg[c.Property]
		if !ok || math.IsNaN(v) {
			return false
		}
		if maximized[c.Property] {
			if v < c.Bound {
				return false
			}
		} else if v > c.Bound {
			return false
		}
	}
	return true
}
