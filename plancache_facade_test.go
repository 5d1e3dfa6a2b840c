// Black-box tests for serving mode through the public API: repeated
// Compose calls hit the selection-plan cache, registry churn on touched
// capabilities invalidates, unrelated churn does not, and a cached
// middleware stays composition-for-composition identical to an uncached
// one through a deterministic churn sequence.
package qasom_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qasom"
	"qasom/internal/obs"
)

// metricValue reads a label-less metric (counter or func gauge) from a
// hub's registry snapshot; ok is false when it is not registered.
func metricValue(hub *obs.Hub, name string) (float64, bool) {
	for _, m := range hub.Metrics.Snapshot() {
		if m.Name == name {
			if len(m.Series) == 0 {
				return 0, true
			}
			return m.Series[0].Value, true
		}
	}
	return 0, false
}

// compositionView flattens the externally observable selection outcome
// for equality checks.
type compositionView struct {
	Bindings   map[string]string
	Alternates map[string][]string
	Aggregated map[string]float64
	Utility    float64
	Feasible   bool
}

func viewOf(c *qasom.Composition) compositionView {
	v := compositionView{
		Bindings:   c.Bindings(),
		Alternates: make(map[string][]string),
		Aggregated: c.AggregatedQoS(),
		Utility:    c.Utility(),
		Feasible:   c.Feasible(),
	}
	for act := range v.Bindings {
		v.Alternates[act] = c.Alternates(act)
	}
	return v
}

func TestComposeCacheHitBitIdentical(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{
		Task: behaviourA,
		Constraints: []qasom.Constraint{
			{Property: "responseTime", Bound: 200},
			{Property: "availability", Bound: 0.8},
		},
		Weights: map[string]float64{"responseTime": 2, "price": 1},
	}
	first, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.SelectionStats().CacheHit {
		t.Fatal("first compose cannot be a cache hit")
	}
	second, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.SelectionStats().CacheHit {
		t.Fatal("identical repeat compose should be a cache hit")
	}
	if !reflect.DeepEqual(viewOf(first), viewOf(second)) {
		t.Errorf("cached composition differs from original:\n%+v\nvs\n%+v",
			viewOf(first), viewOf(second))
	}
	// The replayed stats describe the original run's work profile.
	if second.SelectionStats().Evaluations != first.SelectionStats().Evaluations {
		t.Errorf("cached stats should carry the original work counters")
	}
	for name, want := range map[string]float64{
		"qasom_plan_cache_hits_total":   1,
		"qasom_plan_cache_misses_total": 1,
		"qasom_plan_cache_entries":      1,
	} {
		got, ok := metricValue(hub, name)
		if !ok {
			t.Errorf("metric %s not registered", name)
		} else if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// A cached composition is live: it executes independently of the
	// original (deep copy, no shared adaptation state).
	if _, err := mw.Execute(context.Background(), second); err != nil {
		t.Fatalf("executing a cached composition: %v", err)
	}
}

func TestComposeCacheEpochInvalidation(t *testing.T) {
	hub := obs.NewHub()
	mw, err := qasom.New(qasom.Options{Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	mustCompose := func() *qasom.Composition {
		t.Helper()
		c, err := mw.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	mustCompose() // populate
	if !mustCompose().SelectionStats().CacheHit {
		t.Fatal("warm repeat should hit")
	}

	// Publishing a service for a capability the task touches (CardPayment
	// is plugin-matched by the "pay" activity's Payment concept) bumps
	// that capability's epoch: the entry must be invalidated.
	if err := mw.Publish(qasom.Service{ID: "pay-new", Capability: "CardPayment", QoS: stdQoS(20)}); err != nil {
		t.Fatal(err)
	}
	if mustCompose().SelectionStats().CacheHit {
		t.Error("publish of a touched capability must invalidate the cached plan")
	}
	if v, _ := metricValue(hub, "qasom_plan_cache_epoch_invalidations_total"); v != 1 {
		t.Errorf("invalidations = %g, want 1", v)
	}
	if !mustCompose().SelectionStats().CacheHit {
		t.Fatal("recomputed plan should be cached again")
	}

	// Withdrawing it invalidates again.
	if !mw.Withdraw("pay-new") {
		t.Fatal("withdraw failed")
	}
	if mustCompose().SelectionStats().CacheHit {
		t.Error("withdraw of a touched capability must invalidate the cached plan")
	}

	// Churn on an unrelated capability (MedicalService branch) must NOT
	// invalidate: its epochs are outside the task's capability closure.
	mustCompose() // re-populate after the withdraw invalidation
	if err := mw.Publish(qasom.Service{ID: "lab-1", Capability: "LabAnalysis", QoS: stdQoS(80)}); err != nil {
		t.Fatal(err)
	}
	mw.Withdraw("lab-1")
	if !mustCompose().SelectionStats().CacheHit {
		t.Error("unrelated-capability churn should not invalidate the cached plan")
	}
}

func TestComposeCacheDisabledAndDistributedBypass(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub(), SelectionCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA}
	for i := 0; i < 2; i++ {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if comp.SelectionStats().CacheHit {
			t.Fatal("disabled cache must never hit")
		}
	}

	// Distributed selections bypass the cache even when it is enabled.
	mw2, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw2)
	for i := 0; i < 2; i++ {
		comp, err := mw2.Compose(qasom.Request{Task: behaviourA, Distributed: true})
		if err != nil {
			t.Fatal(err)
		}
		if comp.SelectionStats().CacheHit {
			t.Fatal("distributed compose must never be served from the cache")
		}
	}
}

func TestComposeCacheKeyDistinguishesRequests(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	variants := []qasom.Request{
		{Task: behaviourA},
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 200}}},
		{Task: behaviourA, Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 250}}},
		{Task: behaviourA, Weights: map[string]float64{"price": 3}},
		{Task: behaviourA, Approach: "optimistic"},
		{Task: behaviourB},
	}
	for i, req := range variants {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if comp.SelectionStats().CacheHit {
			t.Errorf("variant %d: first compose of a distinct request must miss", i)
		}
	}
	for i, req := range variants {
		comp, err := mw.Compose(req)
		if err != nil {
			t.Fatalf("variant %d repeat: %v", i, err)
		}
		if !comp.SelectionStats().CacheHit {
			t.Errorf("variant %d: repeat compose should hit", i)
		}
	}
}

// TestDifferentialPlanCacheChurn drives a cached and an uncached
// middleware through the same deterministic publish/withdraw sequence
// and requires composition-for-composition equality: the cache may only
// change how a result is produced, never what it is.
func TestDifferentialPlanCacheChurn(t *testing.T) {
	newSide := func(cacheSize int) *qasom.Middleware {
		mw, err := qasom.New(qasom.Options{Obs: obs.NewHub(), SelectionCacheSize: cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		seedMall(t, mw)
		return mw
	}
	cached := newSide(0)    // default cache
	uncached := newSide(-1) // always recomputes
	both := []*qasom.Middleware{cached, uncached}

	req := qasom.Request{Task: behaviourA,
		Constraints: []qasom.Constraint{{Property: "responseTime", Bound: 300}}}
	hits := 0
	step := func(label string, churn func(mw *qasom.Middleware)) {
		t.Helper()
		for _, mw := range both {
			churn(mw)
		}
		ca, err := cached.Compose(req)
		if err != nil {
			t.Fatalf("%s: cached compose: %v", label, err)
		}
		cb, err := uncached.Compose(req)
		if err != nil {
			t.Fatalf("%s: uncached compose: %v", label, err)
		}
		if !reflect.DeepEqual(viewOf(ca), viewOf(cb)) {
			t.Fatalf("%s: cached middleware diverged from uncached:\n%+v\nvs\n%+v",
				label, viewOf(ca), viewOf(cb))
		}
		if ca.SelectionStats().CacheHit {
			hits++
		}
	}

	step("warmup", func(mw *qasom.Middleware) {})
	for round := 0; round < 3; round++ {
		id := fmt.Sprintf("order-extra-%d", round)
		step("idle", func(mw *qasom.Middleware) {})
		step("publish related", func(mw *qasom.Middleware) {
			if err := mw.Publish(qasom.Service{
				ID: id, Capability: "OrderItem", QoS: stdQoS(25 + float64(round)),
			}); err != nil {
				t.Fatal(err)
			}
		})
		step("publish unrelated", func(mw *qasom.Middleware) {
			if err := mw.Publish(qasom.Service{
				ID: id + "-lab", Capability: "LabAnalysis", QoS: stdQoS(90),
			}); err != nil {
				t.Fatal(err)
			}
		})
		step("withdraw related", func(mw *qasom.Middleware) {
			if !mw.Withdraw(id) {
				t.Fatalf("withdraw %s failed", id)
			}
		})
		step("withdraw unrelated", func(mw *qasom.Middleware) {
			mw.Withdraw(id + "-lab")
		})
	}
	// Idle and unrelated-churn steps must have been served from the cache
	// (1 warmup-follow-up idle + 1 unrelated publish + 1 unrelated
	// withdraw per round, give or take the first idle's population).
	if hits < 6 {
		t.Errorf("cached side hit only %d times; caching is not engaging", hits)
	}
}

// A finished context must surface ctx.Err() even when the request would
// be served straight from a warm plan cache — the fast path is not
// allowed to outrun cancellation.
func TestComposeCacheHitRespectsCancelledContext(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA}
	if _, err := mw.Compose(req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mw.ComposeContext(ctx, req); err == nil {
		t.Fatal("cancelled context served from the plan cache without error")
	}
	// The cache entry stays valid for live callers.
	c, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !c.SelectionStats().CacheHit {
		t.Error("warm entry lost after the cancelled probe")
	}
}

// TestSharedPlanIsolation pins the ownership rule of the shared plan
// cache: every composition served from one cache entry shares the same
// Result, so substitutions and executions on those compositions — and on
// the composition whose miss populated the entry — must land on the
// adaptation runtime's own copy and never reach the cached plan.
func TestSharedPlanIsolation(t *testing.T) {
	mw, err := qasom.New(qasom.Options{Obs: obs.NewHub()})
	if err != nil {
		t.Fatal(err)
	}
	seedMall(t, mw)
	req := qasom.Request{Task: behaviourA}
	miss, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.SelectionStats().CacheHit {
		t.Fatal("first compose cannot be a cache hit")
	}
	want := viewOf(miss)

	// substituteAll rotates every activity to its next alternate and
	// checks the swap took effect on this composition.
	substituteAll := func(c *qasom.Composition) error {
		for act, before := range c.Bindings() {
			got, err := c.Substitute(act)
			if err != nil {
				return fmt.Errorf("substitute %s: %w", act, err)
			}
			if got == before || c.Bindings()[act] != got {
				return fmt.Errorf("substitute %s: bound %s, reported %s", act, c.Bindings()[act], got)
			}
		}
		return nil
	}
	if err := substituteAll(miss); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				c, err := mw.Compose(req)
				if err != nil {
					errc <- err
					return
				}
				if !c.SelectionStats().CacheHit {
					errc <- fmt.Errorf("repeat compose missed the plan cache")
					return
				}
				// Substitution, execution, then substitution again on
				// the runtime's now-private selection.
				if err := substituteAll(c); err != nil {
					errc <- err
					return
				}
				if _, err := mw.Execute(context.Background(), c); err != nil {
					errc <- err
					return
				}
				if err := substituteAll(c); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	fresh, err := mw.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.SelectionStats().CacheHit {
		t.Fatal("entry lost: the final compose should still hit")
	}
	if got := viewOf(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("cached plan was mutated through a served composition:\n got %+v\nwant %+v", got, want)
	}
}
