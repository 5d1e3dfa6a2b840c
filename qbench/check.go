package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qasom"
)

// checker verifies the seeded sample of answers. Any failure makes the
// run incorrect, and the benchmark exits non-zero.
type checker struct {
	in  *inputs
	ref []map[string]string // per request: reference bindings (serve-warm)
	// corrupt, when set, makes the next checked answer wrong before it
	// is checked: the self-test that proves a bad answer fails the run.
	corrupt atomic.Bool

	checked, failures atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

// check verifies one composition answering request idx.
func (c *checker) check(idx int32, comp *qasom.Composition) {
	c.checked.Add(1)
	bindings := comp.Bindings()
	if c.corrupt.CompareAndSwap(true, false) {
		for act := range bindings {
			bindings[act] = "no-such-service"
			break
		}
	}
	if err := c.verify(idx, bindings, comp); err != nil {
		c.failures.Add(1)
		c.mu.Lock()
		if c.firstErr == nil {
			c.firstErr = err
		}
		c.mu.Unlock()
	}
}

func (c *checker) verify(idx int32, bindings map[string]string, comp *qasom.Composition) error {
	acts := c.in.reqActs[idx]
	if len(bindings) != len(acts) {
		return fmt.Errorf("request %d: %d bindings for %d activities", idx, len(bindings), len(acts))
	}
	for act, want := range acts {
		svc := bindings[act]
		got, ok := c.in.capOf[svc]
		if !ok {
			return fmt.Errorf("request %d: activity %s bound to unknown service %q", idx, act, svc)
		}
		if !c.subsumedBy(got, want) {
			return fmt.Errorf("request %d: activity %s needs %s, bound to %s offering %s", idx, act, want, svc, got)
		}
	}
	req := &c.in.requests[idx]
	if calc := satisfied(req.Constraints, comp.AggregatedQoS()); calc != comp.Feasible() {
		return fmt.Errorf("request %d: Feasible()=%v but aggregated QoS against the bounds gives %v", idx, comp.Feasible(), calc)
	}
	if c.ref != nil {
		for act, want := range c.ref[idx] {
			if bindings[act] != want {
				return fmt.Errorf("request %d: activity %s bound to %s, reference answer %s", idx, act, bindings[act], want)
			}
		}
	}
	return nil
}

// subsumedBy reports whether capability offered equals required or
// specialises it in the workload's concept hierarchy.
func (c *checker) subsumedBy(offered, required string) bool {
	for x := offered; x != ""; x = c.in.parent[x] {
		if x == required {
			return true
		}
	}
	return false
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}
