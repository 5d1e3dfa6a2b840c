package adapt

import (
	"reflect"
	"sync"
	"testing"

	"qasom/internal/core"
)

// viewed returns the pointer View hands out.
func viewed(rt *Runtime) *core.Result {
	var out *core.Result
	rt.View(func(res *core.Result) { out = res })
	return out
}

// TestRuntimeCopyOnFirstWrite pins the ownership rule of NewRuntime:
// the runtime serves the caller's Result as is until its first commit,
// then switches to a private copy, and never writes the caller's Result —
// even when several runtimes share it (a plan-cache hit). Result always
// returns a detached copy. Two commits are covered: reactive adaptation
// (concurrent service substitutions) and behavioural adaptation (a
// switch to an alternative behaviour with a fresh selection).
func TestRuntimeCopyOnFirstWrite(t *testing.T) {
	t.Run("reactive", func(t *testing.T) {
		m, rt0, _ := fixture(t)
		shared := rt0.Result()
		pristine := ownSelection(shared)
		runtimes := []*Runtime{NewRuntime(rt0.Req, shared), NewRuntime(rt0.Req, shared), NewRuntime(rt0.Req, shared)}
		for i, rt := range runtimes {
			if viewed(rt) != shared {
				t.Fatalf("runtime %d: View before any commit should see the caller's Result", i)
			}
			if rt.Result() == shared {
				t.Fatalf("runtime %d: Result must return a detached copy", i)
			}
		}
		// All but the last runtime substitute concurrently.
		var wg sync.WaitGroup
		for _, rt := range runtimes[:len(runtimes)-1] {
			wg.Add(1)
			go func(rt *Runtime) {
				defer wg.Done()
				for _, act := range []string{"order", "pay", "order"} {
					if _, err := m.Substitute(rt, act, nil); err != nil {
						t.Error(err)
					}
				}
			}(rt)
		}
		wg.Wait()
		for i, rt := range runtimes[:len(runtimes)-1] {
			own := viewed(rt)
			if own == shared {
				t.Fatalf("runtime %d: View after a commit should see a private copy", i)
			}
			if reflect.DeepEqual(own.Assignment, pristine.Assignment) {
				t.Errorf("runtime %d: substitutions did not change its bindings", i)
			}
		}
		if viewed(runtimes[len(runtimes)-1]) != shared {
			t.Error("an idle runtime should still see the caller's Result")
		}
		if !reflect.DeepEqual(shared.Assignment, pristine.Assignment) ||
			!reflect.DeepEqual(shared.Alternates, pristine.Alternates) {
			t.Error("substitutions wrote the shared Result")
		}
	})

	t.Run("behavioural", func(t *testing.T) {
		m, rt0, _ := fixture(t)
		shared := rt0.Result()
		pristine := ownSelection(shared)
		switched, idle := NewRuntime(rt0.Req, shared), NewRuntime(rt0.Req, shared)
		plan, err := m.AdaptBehaviour(switched)
		if err != nil {
			t.Fatalf("AdaptBehaviour: %v", err)
		}
		if got := viewed(switched); got == shared || got != plan.Selection {
			t.Error("View after a behaviour switch should see the plan's fresh selection")
		}
		if viewed(idle) != shared {
			t.Error("an idle runtime should still see the caller's Result")
		}
		if !reflect.DeepEqual(shared.Assignment, pristine.Assignment) ||
			!reflect.DeepEqual(shared.Alternates, pristine.Alternates) {
			t.Error("the behaviour switch wrote the shared Result")
		}
	})
}
