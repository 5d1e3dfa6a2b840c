package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// randomTree builds a task with exactly n activities (a1..an) under a
// random nesting of sequence, parallel, choice and loop nodes, so the
// probe's per-kind fold replay meets every parent/child combination.
func randomTree(rng *rand.Rand, n int) *task.Task {
	next := 0
	var build func(k, depth int) *task.Node
	build = func(k, depth int) *task.Node {
		if k == 1 && (depth > 3 || rng.Intn(3) > 0) {
			next++
			return task.NewActivity(&task.Activity{ID: fmt.Sprintf("a%d", next), Concept: "C"})
		}
		kind := rng.Intn(4)
		if k == 1 || kind == 3 {
			lo := rng.Intn(3)
			loop := qos.Loop{Min: lo, Max: lo + 1 + rng.Intn(3)}
			if rng.Intn(2) == 0 {
				loop.Expected = float64(loop.Min) + rng.Float64()*float64(loop.Max-loop.Min)
			}
			return task.LoopNode(loop, build(k, depth+1))
		}
		parts := 2 + rng.Intn(3)
		if parts > k {
			parts = k
		}
		sizes := make([]int, parts)
		for i := range sizes {
			sizes[i] = 1
		}
		for rest := k - parts; rest > 0; rest-- {
			sizes[rng.Intn(parts)]++
		}
		children := make([]*task.Node, parts)
		for i, sz := range sizes {
			children[i] = build(sz, depth+1)
		}
		switch kind {
		case 0:
			return task.Sequence(children...)
		case 1:
			return task.Parallel(children...)
		default:
			var probs []float64
			if rng.Intn(3) > 0 {
				probs = make([]float64, parts)
				for i := range probs {
					probs[i] = rng.Float64()
				}
			}
			return task.Choice(probs, children...)
		}
	}
	return &task.Task{Name: "rand", Concept: "C", Root: build(n, 0)}
}

// TestDifferentialProbeViolation pins EvalEngine.ProbeViolation to
// Assign → Violation → restore, bit for bit, for every (activity,
// candidate) pair at random assignments: random nested trees, all
// three aggregation approaches, two constraints on one property, and
// pools holding candidates with identical vectors (the probe's
// bit-unchanged early exit). A probe must leave Current and Aggregate
// untouched, and the naive kernel's probe must agree as well.
func TestDifferentialProbeViolation(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 12; seed++ {
		for _, approach := range qos.Approaches() {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, approach), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := workload.NewGenerator(seed)
				tk := randomTree(rng, 3+rng.Intn(6))
				cands := g.Candidates(tk, 6, ps, laws)
				for _, pool := range cands {
					pool[len(pool)-1].Vector = append(qos.Vector(nil), pool[0].Vector...)
				}
				req := &Request{
					Task:        tk,
					Properties:  ps,
					Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 3),
					Approach:    approach,
				}
				eval, err := NewEvaluator(req, cands)
				if err != nil {
					t.Fatalf("evaluator: %v", err)
				}
				// Request validation refuses a second constraint on one
				// property; the kernels must still agree on one.
				dup := req.Constraints[0]
				dup.Bound *= 0.9
				req.Constraints = append(req.Constraints, dup)
				eng, err := NewEvalEngine(eval, cands)
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				ref := newNaiveKernel(eval, cands)
				n := eng.Activities()
				idx := make([]int, n)
				for round := 0; round < 6; round++ {
					for a := range idx {
						idx[a] = rng.Intn(eng.PoolSize(a))
					}
					eng.Load(idx)
					ref.Load(idx)
					for a := 0; a < n; a++ {
						for k := 0; k < eng.PoolSize(a); k++ {
							before := eng.Aggregate()
							got := eng.ProbeViolation(a, k)
							if !reflect.DeepEqual(eng.Snapshot(nil), idx) {
								t.Fatalf("probe (%d,%d) moved the assignment", a, k)
							}
							if after := eng.Aggregate(); !sameBits(before, after) {
								t.Fatalf("probe (%d,%d) moved the aggregate: %v -> %v", a, k, before, after)
							}
							eng.Assign(a, k)
							want := eng.Violation()
							eng.Assign(a, idx[a])
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("round %d probe (%d,%d) = %v, Assign→Violation = %v", round, a, k, got, want)
							}
							if rv := ref.ProbeViolation(a, k); math.Float64bits(rv) != math.Float64bits(want) {
								t.Fatalf("round %d naive probe (%d,%d) = %v, engine %v", round, a, k, rv, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestDifferentialProbeViolationDependencies pins the global phase's
// probe helper under dependency rules: the engine's non-mutating probe
// plus the overriding view must equal the naive kernel's bind → measure
// → restore, and count the same evaluations.
func TestDifferentialProbeViolationDependencies(t *testing.T) {
	ps := qos.StandardSet()
	laws := workload.DefaultLaws(ps)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := workload.NewGenerator(seed)
			tk := randomTree(rng, 5)
			cands := g.Candidates(tk, 8, ps, laws)
			stampProviders(cands)
			req := &Request{
				Task:         tk,
				Properties:   ps,
				Constraints:  g.Constraints(tk, ps, laws, workload.AtMean, 3),
				Dependencies: mixedDeps(5, 8),
			}
			eval, err := NewEvaluator(req, cands)
			if err != nil {
				t.Fatalf("evaluator: %v", err)
			}
			ds, err := req.CompiledDependencies()
			if err != nil {
				t.Fatal(err)
			}
			acts := tk.Activities()
			ranked := make([][]RankedCandidate, len(acts))
			for i, a := range acts {
				for _, c := range cands[a.ID] {
					ranked[i] = append(ranked[i], RankedCandidate{Service: c.Service, Vector: c.Vector})
				}
			}
			eng, err := newEvalEngineRanked(eval, ranked)
			if err != nil {
				t.Fatal(err)
			}
			fast := &globalState{eng: eng, deps: bindDeps(ds, ranked)}
			slow := &globalState{eng: newNaiveKernel(eval, cands), deps: bindDeps(ds, ranked)}
			idx := make([]int, len(acts))
			for round := 0; round < 8; round++ {
				for a := range idx {
					idx[a] = rng.Intn(len(ranked[a]))
				}
				fast.eng.Load(idx)
				slow.eng.Load(idx)
				for a := range acts {
					for k := range ranked[a] {
						got := fast.probeViolation(a, k)
						slow.eng.Assign(a, k)
						want := slow.violation()
						slow.eng.Assign(a, idx[a])
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d probe (%d,%d) = %v, naive %v", round, a, k, got, want)
						}
						if fast.eng.Current(a) != idx[a] {
							t.Fatalf("probe (%d,%d) moved the binding", a, k)
						}
					}
				}
			}
			if fast.stats.Evaluations != slow.stats.Evaluations {
				t.Errorf("evaluations %d != naive %d", fast.stats.Evaluations, slow.stats.Evaluations)
			}
		})
	}
}

func sameBits(a, b qos.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRankInPlaceMatchesSliceStable pins the permutation ranking to a
// stable sort of the entries themselves, ties on every key included:
// entries equal under rankLess must keep their input order.
func TestRankInPlaceMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scr := new(localScratch)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(70)
		in := make([]RankedCandidate, n)
		for i := range in {
			in[i] = RankedCandidate{
				Service:   registry.Description{ID: registry.ServiceID(fmt.Sprintf("s%d", rng.Intn(6))), Name: fmt.Sprint(i)},
				Utility:   float64(rng.Intn(3)) / 2,
				Level:     1 + rng.Intn(2),
				ClassSize: 1 + rng.Intn(2),
			}
		}
		want := append([]RankedCandidate(nil), in...)
		sort.SliceStable(want, func(a, b int) bool { return rankLess(&want[a], &want[b]) })
		rankInPlace(in, scr)
		for i := range want {
			if in[i].Service.Name != want[i].Service.Name {
				t.Fatalf("trial %d: position %d holds entry %s, stable sort %s", trial, i, in[i].Service.Name, want[i].Service.Name)
			}
		}
	}
}
