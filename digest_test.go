package qasom_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"qasom"
	"qasom/internal/bpel"
	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// decisionDigests pins every selection decision of the seeded request
// streams below. The differential suites compare two in-repo paths that
// share the normalizer, K-means, ranking and alternate lists, so a change
// to shared code moves both sides and still passes; these constants do
// not move with it. A change that alters decisions on purpose updates the
// constant of each shape it moves and says why in CHANGES.md.
var decisionDigests = map[string]string{
	"serve-warm":   "93c986407bc0d3cd",
	"select-cold":  "3dd8c3cf408758eb",
	"adapt-churn":  "bab93a284a455e88",
	"pareto":       "033eeebe00d549da",
	"dependencies": "b48ed7cd5ff665d5",
	"distributed":  "f9437e70effb5407",
}

// TestDecisionDigest composes seeded workload instances shaped like the
// serving benchmarks (plus the Pareto, dependency-rule and distributed
// modes) with the plan cache off, and hashes per request the bindings,
// the bits of utility and aggregated QoS, the alternates and the
// global-phase work counts. Scheduling observations (durations, worker
// occupancy, cache counters) are left out, so the digest is the same on
// any core count.
func TestDecisionDigest(t *testing.T) {
	for _, name := range []string{"serve-warm", "select-cold", "adapt-churn", "pareto", "dependencies", "distributed"} {
		t.Run(name, func(t *testing.T) {
			got := digestShape(t, name)
			if want := decisionDigests[name]; got != want {
				t.Errorf("decision digest %s, want %s: a selection decision changed", got, want)
			}
		})
	}
}

// digestEnv is one middleware populated from a workload generator.
type digestEnv struct {
	t    *testing.T
	mw   *qasom.Middleware
	g    *workload.Generator
	ps   *qos.PropertySet
	laws []workload.Law
	h    hash.Hash
}

func newDigestEnv(t *testing.T, seed int64, opts qasom.Options) *digestEnv {
	t.Helper()
	opts.Seed = seed
	opts.SelectionCacheSize = -1
	mw, err := qasom.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	ps := qos.StandardSet()
	return &digestEnv{t: t, mw: mw, g: workload.NewGenerator(seed), ps: ps, laws: workload.DefaultLaws(ps), h: sha256.New()}
}

// concept adds a capability concept, optionally under a parent.
func (e *digestEnv) concept(id, parent string) {
	e.t.Helper()
	var parents []semantics.ConceptID
	if parent != "" {
		parents = append(parents, semantics.ConceptID(parent))
	}
	if err := e.mw.Ontology().AddConcept(semantics.ConceptID(id), parents...); err != nil {
		e.t.Fatal(err)
	}
}

// publish deploys one service with QoS drawn from the workload laws.
func (e *digestEnv) publish(id, capability, device string) {
	e.t.Helper()
	vec := e.g.Vector(e.ps, e.laws)
	q := make(map[string]float64, e.ps.Len())
	for j, name := range e.ps.Names() {
		q[name] = vec[j]
	}
	if err := e.mw.Publish(qasom.Service{ID: id, Capability: capability, Device: device, QoS: q}); err != nil {
		e.t.Fatal(err)
	}
}

// task generates an n-activity task named name, registers its capability
// concepts and publishes perCap services for each; it returns the task
// and its abstract-BPEL document.
func (e *digestEnv) task(name string, n int, shape workload.TaskShape, perCap int) (*task.Task, string) {
	e.t.Helper()
	tk := e.g.Task(name, n, shape)
	for _, a := range tk.Activities() {
		e.concept(string(a.Concept), "")
		for k := 0; k < perCap; k++ {
			e.publish(fmt.Sprintf("%s-s%d", a.ID+name, k), string(a.Concept), fmt.Sprintf("dev%d", k%3))
		}
	}
	doc, err := bpel.Marshal(tk)
	if err != nil {
		e.t.Fatal(err)
	}
	return tk, string(doc)
}

// constraints derives a workload constraint set in façade form.
func (e *digestEnv) constraints(tk *task.Task, tight workload.Tightness, count int) []qasom.Constraint {
	var out []qasom.Constraint
	for _, c := range e.g.Constraints(tk, e.ps, e.laws, tight, count) {
		out = append(out, qasom.Constraint{Property: c.Property, Bound: c.Bound})
	}
	return out
}

// randomWeights draws a full weight map from the generator's stream.
func (e *digestEnv) randomWeights() map[string]float64 {
	w := make(map[string]float64, e.ps.Len())
	for _, name := range e.ps.Names() {
		w[name] = 0.05 + 0.95*e.g.Rand().Float64()
	}
	return w
}

// compose runs one request and folds its decision into the digest; an
// error is folded in as its message.
func (e *digestEnv) compose(req qasom.Request) {
	e.t.Helper()
	comp, err := e.mw.Compose(req)
	if err != nil {
		fmt.Fprintf(e.h, "error %s\n", err)
		return
	}
	bindings := comp.Bindings()
	acts := make([]string, 0, len(bindings))
	for a := range bindings {
		acts = append(acts, a)
	}
	sort.Strings(acts)
	for _, a := range acts {
		fmt.Fprintf(e.h, "bind %s=%s alt=%v\n", a, bindings[a], comp.Alternates(a))
	}
	fmt.Fprintf(e.h, "feasible=%t utility=%x\n", comp.Feasible(), math.Float64bits(comp.Utility()))
	agg := comp.AggregatedQoS()
	for _, name := range e.ps.Names() {
		fmt.Fprintf(e.h, "agg %s=%x\n", name, math.Float64bits(agg[name]))
	}
	s := comp.SelectionStats()
	fmt.Fprintf(e.h, "work evals=%d swaps=%d levels=%d front=%d\n", s.Evaluations, s.RepairSwaps, s.LevelsExplored, s.FrontSize)
	for i, m := range comp.Front() {
		fmt.Fprintf(e.h, "front %d utility=%x", i, math.Float64bits(m.Utility))
		for _, a := range acts {
			fmt.Fprintf(e.h, " %s=%s", a, m.Bindings[a])
		}
		for _, name := range e.ps.Names() {
			fmt.Fprintf(e.h, " %x", math.Float64bits(m.QoS[name]))
		}
		fmt.Fprintln(e.h)
	}
}

func (e *digestEnv) sum() string { return fmt.Sprintf("%x", e.h.Sum(nil)[:8]) }

// digestShape builds the named request stream and returns its digest.
func digestShape(t *testing.T, shape string) string {
	switch shape {
	case "serve-warm":
		// Repeat-user shapes: four documents over ℓ=20, each under
		// default, skewed and random weights and three bound levels.
		e := newDigestEnv(t, 11, qasom.Options{})
		for d := 0; d < 4; d++ {
			tk, doc := e.task(fmt.Sprintf("Sw%d", d), 8, workload.ShapeMixed, 20)
			// Bound levels: none, loose, tight, and below the floor
			// (best-effort, infeasible).
			bounds := [][]qasom.Constraint{nil, e.constraints(tk, workload.AtMeanPlusSigma, 2), e.constraints(tk, workload.AtMean, 3),
				{{Property: "responseTime", Bound: 1}}}
			weights := []map[string]float64{nil, {"responseTime": 4, "price": 1}, e.randomWeights()}
			for _, w := range weights {
				for _, b := range bounds {
					e.compose(qasom.Request{Task: doc, Weights: w, Constraints: b})
				}
			}
		}
		return e.sum()
	case "select-cold":
		// Fresh weights and bounds per request over ℓ=100, two
		// activities matched by subsumption, unrelated services around.
		e := newDigestEnv(t, 12, qasom.Options{})
		for c := 0; c < 20; c++ {
			id := fmt.Sprintf("ScIdle%02d", c)
			e.concept(id, "")
			for k := 0; k < 50; k++ {
				e.publish(fmt.Sprintf("sc-i%02d-%d", c, k), id, "")
			}
		}
		var docs []string
		var tasks []*task.Task
		for d := 0; d < 2; d++ {
			tk, doc := e.task(fmt.Sprintf("Sc%d", d), 10, workload.ShapeMixed, 100)
			for _, a := range tk.Activities()[2:4] {
				for _, kind := range []string{"A", "B"} {
					sub := string(a.Concept) + kind
					e.concept(sub, string(a.Concept))
					for k := 0; k < 50; k++ {
						e.publish(fmt.Sprintf("%s-%d", sub, k), sub, "")
					}
				}
			}
			docs, tasks = append(docs, doc), append(tasks, tk)
		}
		for i := 0; i < 12; i++ {
			d := i % len(docs)
			tight := workload.AtMeanPlusSigma
			if i%4 == 0 {
				tight = workload.AtMean
			}
			bounds := e.constraints(tasks[d], tight, 3)
			if i%6 == 5 {
				bounds[0].Bound /= 2 // below what any binding reaches
			}
			e.compose(qasom.Request{Task: docs[d], Weights: e.randomWeights(), Constraints: bounds})
		}
		return e.sum()
	case "adapt-churn":
		// Task classes referenced by behaviour name over ℓ=8, with
		// publish/withdraw writes to touched capabilities in between.
		e := newDigestEnv(t, 13, qasom.Options{})
		var names []string
		var caps []string
		for k := 0; k < 2; k++ {
			var docs []string
			for v, suffix := range []string{"a", "b"} {
				tk := e.g.Task(fmt.Sprintf("Ac%d", k), 6, workload.ShapeMixed)
				tk.Name = fmt.Sprintf("ac-k%d%s", k, suffix)
				for _, a := range tk.Activities() {
					if v == 0 {
						e.concept(string(a.Concept), "")
						caps = append(caps, string(a.Concept))
						for s := 0; s < 8; s++ {
							e.publish(fmt.Sprintf("%s-%d", a.Concept, s), string(a.Concept), "")
						}
					}
				}
				doc, err := bpel.Marshal(tk)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, string(doc))
				names = append(names, tk.Name)
			}
			if err := e.mw.RegisterTaskClass(fmt.Sprintf("ac-k%d", k), docs...); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(13))
		present := map[string]bool{}
		for i := 0; i < 24; i++ {
			if i%3 == 2 {
				c := caps[rng.Intn(len(caps))]
				id := fmt.Sprintf("%s-x%d", c, rng.Intn(2))
				if present[id] {
					e.mw.Withdraw(id)
				} else {
					e.publish(id, c, "")
				}
				present[id] = !present[id]
				continue
			}
			var bounds []qasom.Constraint
			if i%2 == 0 {
				bounds = []qasom.Constraint{{Property: "responseTime", Bound: 3000}}
			}
			e.compose(qasom.Request{Task: names[rng.Intn(len(names))], Constraints: bounds})
		}
		return e.sum()
	case "pareto":
		// Front mode over two and three objectives, plus the two
		// requests the mode rules refuse.
		e := newDigestEnv(t, 14, qasom.Options{ParetoMode: true})
		tk, doc := e.task("Pa", 5, workload.ShapeMixed, 6)
		for _, objs := range [][]string{{"responseTime", "price"}, {"responseTime", "availability", "price"}, nil} {
			e.compose(qasom.Request{Task: doc, Objectives: objs, Constraints: e.constraints(tk, workload.AtMeanPlusSigma, 2)})
			e.compose(qasom.Request{Task: doc, Objectives: objs, Weights: e.randomWeights()})
		}
		e.compose(qasom.Request{Task: doc, Distributed: true})
		// Objectives on a scalar middleware, folded into the same digest.
		scalar := newDigestEnv(t, 14, qasom.Options{})
		scalar.h = e.h
		_, sdoc := scalar.task("Pa", 5, workload.ShapeMixed, 6)
		scalar.compose(qasom.Request{Task: sdoc, Objectives: []string{"responseTime", "price"}})
		return e.sum()
	case "dependencies":
		// requires, excludes and colocated rules over ℓ=12.
		e := newDigestEnv(t, 15, qasom.Options{})
		tk, doc := e.task("De", 6, workload.ShapeLinear, 12)
		acts := tk.ActivityIDs()
		svc := func(act string, k int) string { return fmt.Sprintf("%s-s%d", act+"De", k) }
		rules := [][]qasom.Dependency{
			{{Kind: "requires", From: acts[0], To: acts[1], ToServices: []string{svc(acts[1], 3), svc(acts[1], 7)}}},
			{{Kind: "excludes", From: acts[1], To: acts[2], FromService: svc(acts[1], 0), ToServices: []string{svc(acts[2], 0), svc(acts[2], 1), svc(acts[2], 2)}}},
			{{Kind: "colocated", From: acts[3], To: acts[4]}, {Kind: "colocated", From: acts[4], To: acts[5]}},
		}
		for _, r := range rules {
			e.compose(qasom.Request{Task: doc, Dependencies: r})
			e.compose(qasom.Request{Task: doc, Dependencies: r, Weights: e.randomWeights(), Constraints: e.constraints(tk, workload.AtMeanPlusSigma, 3)})
		}
		return e.sum()
	case "distributed":
		// One simulated coordinator per activity.
		e := newDigestEnv(t, 16, qasom.Options{})
		tk, doc := e.task("Di", 6, workload.ShapeMixed, 15)
		for i := 0; i < 4; i++ {
			e.compose(qasom.Request{Task: doc, Distributed: true, Weights: e.randomWeights(), Constraints: e.constraints(tk, workload.AtMeanPlusSigma, 3)})
		}
		return e.sum()
	}
	t.Fatalf("unknown shape %q", shape)
	return ""
}
