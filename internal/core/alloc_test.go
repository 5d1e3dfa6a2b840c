package core

import (
	"math/rand"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/workload"
)

// TestEvalProbeZeroAlloc enforces the incremental engine's zero-alloc
// probe contract: Assign + Violation + Utility, and the non-mutating
// ProbeViolation — the inner loops of every repair and improvement
// sweep — must not allocate at all.
func TestEvalProbeZeroAlloc(t *testing.T) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(5)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("probe", 6, workload.ShapeMixed)
	cands := g.Candidates(tk, 20, ps, laws)
	req := &Request{
		Task:        tk,
		Properties:  ps,
		Constraints: g.Constraints(tk, ps, laws, workload.AtMean, 2),
	}
	eval, err := NewEvaluator(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEvalEngine(eval, cands)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := eng.Activities()
	sink := 0.0
	avg := testing.AllocsPerRun(200, func() {
		a := rng.Intn(n)
		eng.Assign(a, rng.Intn(eng.PoolSize(a)))
		sink += eng.Violation() + eng.Utility()
	})
	if avg != 0 {
		t.Errorf("eval probe allocates %.2f/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(200, func() {
		a := rng.Intn(n)
		sink += eng.ProbeViolation(a, rng.Intn(eng.PoolSize(a)))
	})
	if avg != 0 {
		t.Errorf("ProbeViolation allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// TestLocalSelectPooledAllocCeiling pins the pooled local phase's
// allocation budget: once the sync.Pool scratch is warm, one localSelect
// over 300 candidates may allocate only its retained outputs (the ranked
// slice, the shared scores backing, the result struct, the normalizer
// and sort bookkeeping) — an O(1) count, not O(candidates).
func TestLocalSelectPooledAllocCeiling(t *testing.T) {
	ps := qos.StandardSet()
	g := workload.NewGenerator(7)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("alloc", 1, workload.ShapeLinear)
	id := tk.Activities()[0].ID
	cands := g.Candidates(tk, 300, ps, laws)[id]
	weights := qos.UniformWeights(ps)

	run := func() {
		rng := rand.New(rand.NewSource(1))
		if _, err := localSelect(id, cands, ps, weights, 4, 0, rng); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch pool
	// Retained outputs plus small fixed bookkeeping; 20 gives headroom
	// over the ~12 observed without re-admitting any per-candidate
	// allocation (which would add hundreds).
	const ceiling = 20
	if avg := testing.AllocsPerRun(50, run); avg > ceiling {
		t.Errorf("pooled localSelect allocates %.1f/op, want <= %d", avg, ceiling)
	}
}
