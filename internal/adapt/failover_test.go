package adapt

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// instrument gives a fixture's manager what the façade's one manager
// carries: a monitor the scan probes for health and a metrics hub the
// scan counts into. It returns the hub.
func instrument(m *Manager) *obs.Hub {
	m.Monitor = monitor.New(stdPS(), monitor.Options{})
	hub := obs.NewHub()
	m.Metrics = NewMetrics(hub)
	return hub
}

// boundID reads the current binding of an activity.
func boundID(rt *Runtime, act string) registry.ServiceID {
	var id registry.ServiceID
	rt.View(func(res *core.Result) { id = res.Assignment[act].Service.ID })
	return id
}

// altIDs reads the current alternate rotation of an activity.
func altIDs(rt *Runtime, act string) []registry.ServiceID {
	var out []registry.ServiceID
	rt.View(func(res *core.Result) {
		for _, a := range res.Alternates[act] {
			out = append(out, a.Service.ID)
		}
	})
	return out
}

// TestSubstituteAllocFloor floors the per-failover allocation count:
// the ID snapshot is pooled and the rotation is in place once the
// runtime owns its selection, so a failover allocates nothing that
// grows with the alternate list.
func TestSubstituteAllocFloor(t *testing.T) {
	m, rt, _ := fixture(t)
	instrument(m)
	exclude := make(map[registry.ServiceID]bool, 1)
	allocs := testing.AllocsPerRun(200, func() {
		clear(exclude)
		exclude[boundID(rt, "order")] = true
		if _, err := m.Substitute(rt, "order", exclude); err != nil {
			t.Fatal(err)
		}
	})
	// boundID's View closure is the budget; the scan and the rotation
	// themselves are allocation-free.
	if allocs > 2 {
		t.Errorf("Substitute allocs = %g, want ≤ 2", allocs)
	}
}

// parallelTask builds par(a1, a2, a3) over three concepts with published
// candidates.
func parallelFixture(t *testing.T) (*Manager, *Runtime, *registry.Registry) {
	t.Helper()
	onto := semantics.PervasiveWithScenarios()
	reg := registry.New(onto)
	publish(t, reg, semantics.BrowseCatalog, "browse", 6)
	publish(t, reg, semantics.OrderItem, "order", 6)
	publish(t, reg, semantics.CardPayment, "pay", 6)
	pt := &task.Task{Name: "par3", Concept: semantics.ShoppingService, Root: task.Parallel(
		task.NewActivity(&task.Activity{ID: "a1", Concept: semantics.BrowseCatalog}),
		task.NewActivity(&task.Activity{ID: "a2", Concept: semantics.OrderItem}),
		task.NewActivity(&task.Activity{ID: "a3", Concept: semantics.CardPayment}),
	)}
	req := &core.Request{Task: pt, Properties: stdPS()}
	cands := make(map[string][]registry.Candidate)
	for _, a := range pt.Activities() {
		cands[a.ID] = reg.CandidatesForActivity(a, stdPS())
	}
	sel := core.NewSelector(core.Options{MaxAlternates: 8})
	res, err := sel.Select(req, cands)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(req, res)
	m := &Manager{Registry: reg, Selector: sel}
	return m, rt, reg
}

// checkBindingInvariant asserts that, per activity, the binding plus the
// alternates contain no duplicates and exactly the services selection
// handed out (no service lost, none invented).
func checkBindingInvariant(t *testing.T, rt *Runtime, want map[string]map[registry.ServiceID]bool) {
	t.Helper()
	rt.View(func(res *core.Result) {
		for act, expect := range want {
			seen := map[registry.ServiceID]bool{}
			add := func(id registry.ServiceID) {
				if seen[id] {
					t.Errorf("%s: duplicate binding of %s", act, id)
				}
				seen[id] = true
				if !expect[id] {
					t.Errorf("%s: unexpected service %s", act, id)
				}
			}
			add(res.Assignment[act].Service.ID)
			for _, a := range res.Alternates[act] {
				add(a.Service.ID)
			}
			if len(seen) != len(expect) {
				t.Errorf("%s: %d services, want %d", act, len(seen), len(expect))
			}
		}
	})
}

// bindingUniverse snapshots the per-activity service sets.
func bindingUniverse(rt *Runtime) map[string]map[registry.ServiceID]bool {
	want := map[string]map[registry.ServiceID]bool{}
	rt.View(func(res *core.Result) {
		for act, cand := range res.Assignment {
			set := map[registry.ServiceID]bool{cand.Service.ID: true}
			for _, a := range res.Alternates[act] {
				set[a.Service.ID] = true
			}
			want[act] = set
		}
	})
	return want
}

// TestConcurrentSubstitutionExactlyOnce races simultaneous reactive
// failovers of parallel activities and checks the exactly-once /
// no-duplicate-binding invariants: first within one runtime, then across
// two runtimes that share one selection (a plan-cache hit) and one
// manager (the façade's), where the shared substitution counter must
// also add up.
func TestConcurrentSubstitutionExactlyOnce(t *testing.T) {
	const rounds = 50
	race := func(t *testing.T, m *Manager, runtimes []*Runtime) {
		var wg sync.WaitGroup
		for _, rt := range runtimes {
			for _, act := range []string{"a1", "a2", "a3"} {
				wg.Add(1)
				go func(rt *Runtime, act string) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
						if _, err := m.Substitute(rt, act, exclude); err != nil {
							t.Errorf("%s round %d: %v", act, i, err)
							return
						}
					}
				}(rt, act)
			}
		}
		wg.Wait()
	}

	t.Run("reactive", func(t *testing.T) {
		m, rt, _ := parallelFixture(t)
		want := bindingUniverse(rt)
		race(t, m, []*Runtime{rt})
		if got := rt.Substitutions(); got != 3*rounds {
			t.Errorf("substitutions = %d, want exactly %d", got, 3*rounds)
		}
		checkBindingInvariant(t, rt, want)
	})

	t.Run("shared-selection", func(t *testing.T) {
		m, rt0, _ := parallelFixture(t)
		hub := instrument(m)
		want := bindingUniverse(rt0)
		shared := rt0.Result()
		runtimes := []*Runtime{NewRuntime(rt0.Req, shared), NewRuntime(rt0.Req, shared)}
		race(t, m, runtimes)
		for i, rt := range runtimes {
			if got := rt.Substitutions(); got != 3*rounds {
				t.Errorf("runtime %d: substitutions = %d, want exactly %d", i, got, 3*rounds)
			}
			checkBindingInvariant(t, rt, want)
		}
		if got := hub.Metrics.Counter("qasom_adapt_substitutions_total", "").Value(); got != 2*3*rounds {
			t.Errorf("substitution counter = %d, want %d", got, 2*3*rounds)
		}
		if got := hub.Metrics.Counter("qasom_adapt_failover_monitor_checks_total", "").Value(); got < 2*3*rounds {
			t.Errorf("monitor checks = %d, want at least one per substitution", got)
		}
	})
}

// TestExecutorParallelFailuresSubstituteOnce drives the invariant
// through the real executor: every bound service of a parallel task is
// dead, so all three failovers race inside one Run.
func TestExecutorParallelFailuresSubstituteOnce(t *testing.T) {
	m, rt, _ := parallelFixture(t)
	instrument(m)
	want := bindingUniverse(rt)

	dead := map[registry.ServiceID]bool{}
	rt.View(func(res *core.Result) {
		for _, cand := range res.Assignment {
			dead[cand.Service.ID] = true
		}
	})
	e := &exec.Executor{
		Invoker:    &failingInvoker{dead: dead},
		Binder:     rt,
		OnFailure:  m.FailureHandler(rt),
		OnComplete: m.CompletionHook(rt),
	}
	if _, err := e.Run(context.Background(), rt.Req.Task); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rt.Substitutions(); got != 3 {
		t.Errorf("substitutions = %d, want exactly 3 (one per failed activity)", got)
	}
	if rt.CompletedCount() != 3 {
		t.Errorf("completed = %d, want 3", rt.CompletedCount())
	}
	checkBindingInvariant(t, rt, want)
}

// TestSubstituteUnderRegistryChurn runs failovers while the registry
// churns underneath: every failover must find a live alternate, and the
// rotation must neither lose nor duplicate a service.
func TestSubstituteUnderRegistryChurn(t *testing.T) {
	m, rt, reg := parallelFixture(t)
	instrument(m)
	want := bindingUniverse(rt)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := registry.ServiceID(fmt.Sprintf("order-%d", 1+i%5))
			if i%2 == 0 {
				reg.Withdraw(id)
			} else {
				reg.Publish(registry.Description{
					ID: id, Concept: semantics.OrderItem,
					Offers: offers(40+float64(5*(1+i%5)), 5, 0.95, 0.9, 40),
				})
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, act := range []string{"a1", "a2", "a3"} {
			exclude := map[registry.ServiceID]bool{boundID(rt, act): true}
			if _, err := m.Substitute(rt, act, exclude); err != nil {
				t.Fatalf("%s round %d: %v", act, i, err)
			}
		}
	}
	close(stop)
	churn.Wait()
	if got := rt.Substitutions(); got != 3*200 {
		t.Errorf("substitutions = %d, want %d", got, 3*200)
	}
	checkBindingInvariant(t, rt, want)
}

// TestResultIsDetachedCopy pins the new aliasing contract: Result()
// returns a deep copy that later substitutions do not mutate.
func TestResultIsDetachedCopy(t *testing.T) {
	m, rt, _ := fixture(t)
	instrument(m)
	before := rt.Result()
	beforeBound := before.Assignment["order"].Service.ID
	if _, err := m.Substitute(rt, "order", nil); err != nil {
		t.Fatal(err)
	}
	if got := before.Assignment["order"].Service.ID; got != beforeBound {
		t.Errorf("Result() copy mutated by Substitute: %s -> %s", beforeBound, got)
	}
	if rt.Result().Assignment["order"].Service.ID == beforeBound {
		t.Error("runtime itself should have substituted")
	}
}
