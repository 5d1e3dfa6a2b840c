// Package adapt implements QoS-driven composition adaptation (Chapter V):
// the run-time state of a composition, the service-substitution strategy
// (replace a failing/degraded service with a selection-time alternate)
// and the behavioural-adaptation strategy (switch the remaining work to
// an equivalent behaviour from the task-class repository, found through
// subgraph-homeomorphism matching, then re-run QASSA on the remaining
// subtask under residual constraints).
//
// Failover is the paper's alternate scan: Substitute walks the
// activity's alternates in rotation order and binds the first one that
// is still published, healthy and admissible. The scan snapshots its
// decision inputs under the runtime lock and probes the registry and
// monitor outside it, so parallel-branch failovers do not serialize
// against the registry and monitor locks.
package adapt

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"qasom/internal/core"
	"qasom/internal/exec"
	"qasom/internal/graph"
	"qasom/internal/monitor"
	"qasom/internal/obs"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/task"
)

// Runtime is the adaptation-relevant state of one running composition.
// Safe for concurrent use (the executor completes parallel activities
// concurrently).
type Runtime struct {
	// Req is the originating request.
	Req *core.Request
	// Behaviour is the currently executing behaviour (initially
	// Req.Task; replaced by behavioural adaptation).
	Behaviour *task.Task

	// deps is the request's compiled dependency rule set (nil when the
	// request declares none). Both the optimistic and the locked scan
	// consult it, so failover can never install a binding that violates
	// a dependency rule.
	deps *core.DependencySet

	mu sync.Mutex
	// version counts selection mutations (substitution commits and
	// behaviour switches): the optimistic scan commits only if no other
	// commit moved it since the snapshot.
	version uint64
	// result is the current selection (assignment + alternates). Until
	// owned is set it is the caller's Result, possibly shared with the
	// plan cache and other runtimes, and must not be written.
	result *core.Result
	// owned reports that result's assignment map and alternate lists are
	// this runtime's private copies (see ownLocked).
	owned bool
	// completed marks finished activities of the current behaviour.
	completed map[string]bool
	// observed keeps the measured QoS of completed activities (feeding
	// residual-constraint computation).
	observed map[string]qos.Vector
	// substitutions counts applied service substitutions.
	substitutions int
}

// NewRuntime wraps a selection into a runtime without copying it. res
// may be shared (a plan-cache hit hands the same Result to every
// caller): the runtime never writes it, and copies what substitution
// mutates in place — the assignment map and the alternate lists — on the
// first substitution commit (copy on first write). The rest is shared
// for the runtime's lifetime, because nothing writes it after selection.
// A compose-only caller therefore pays for no copy at all.
func NewRuntime(req *core.Request, res *core.Result) *Runtime {
	// The request was validated at selection time, so a compile failure
	// here can only mean the caller mutated it since; running without the
	// guard (nil set) is the best-effort answer either way.
	ds, _ := req.CompiledDependencies()
	return &Runtime{
		Req:       req,
		Behaviour: req.Task,
		deps:      ds,
		result:    res,
		completed: make(map[string]bool),
		observed:  make(map[string]qos.Vector),
	}
}

// admissibleLocked appends to ids the activity's alternates, in rotation
// order, that keep every dependency rule satisfied under the rest of the
// current assignment. Caller holds rt.mu.
func (rt *Runtime) admissibleLocked(activityID string, ids []registry.ServiceID) []registry.ServiceID {
	bound := func(id string) (registry.Candidate, bool) {
		c, ok := rt.result.Assignment[id]
		return c, ok
	}
	for _, alt := range rt.result.Alternates[activityID] {
		if rt.deps == nil || rt.deps.Admissible(activityID, alt, bound) {
			ids = append(ids, alt.Service.ID)
		}
	}
	return ids
}

// ownLocked gives the runtime private copies of the assignment map and
// alternate lists before their first in-place mutation. Caller holds
// rt.mu.
func (rt *Runtime) ownLocked() {
	if !rt.owned {
		rt.result = ownSelection(rt.result)
		rt.owned = true
	}
}

// ownSelection copies the parts of res the runtime mutates in place (the
// assignment map and each activity's alternate list) and shares the
// rest: candidate values, Aggregated, Breakdown, Front and Stats are
// read-only after selection.
func ownSelection(res *core.Result) *core.Result {
	cp := *res
	cp.Assignment = maps.Clone(res.Assignment)
	cp.Alternates = make(map[string][]registry.Candidate, len(res.Alternates))
	for id, alts := range res.Alternates {
		cp.Alternates[id] = slices.Clone(alts)
	}
	return &cp
}

// Result returns a copy of the current selection result. The copy is
// detached from later substitutions: its assignment and alternate lists
// are its own, and the fields it shares are never written. Callers must
// treat the result as read-only. Callers that only need a cheap read
// under the runtime lock use View instead.
func (rt *Runtime) Result() *core.Result {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return ownSelection(rt.result)
}

// View runs f with the live selection result while holding the runtime
// lock. Until the first substitution commit the pointer is the Result
// passed to NewRuntime (possibly shared); from then on it is the
// runtime's private copy, which concurrent substitutions mutate. Either
// way f must not retain it past its return and must not mutate it.
func (rt *Runtime) View(f func(*core.Result)) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f(rt.result)
}

// Substitutions counts the service substitutions applied so far.
func (rt *Runtime) Substitutions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.substitutions
}

// ResetProgress clears completion tracking so the behaviour can run
// again (repeated executions of the same composition, e.g. streaming
// segments). Substitution history and the current assignment persist.
func (rt *Runtime) ResetProgress() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.completed = make(map[string]bool)
	rt.observed = make(map[string]qos.Vector)
}

// MarkCompleted records a finished activity and its measured QoS.
func (rt *Runtime) MarkCompleted(activityID string, measured qos.Vector) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.completed[activityID] = true
	if measured != nil {
		rt.observed[activityID] = measured.Clone()
	}
}

// Completed reports whether the activity finished.
func (rt *Runtime) Completed(activityID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.completed[activityID]
}

// CompletedCount returns the number of finished activities.
func (rt *Runtime) CompletedCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.completed)
}

// Bind implements exec.Binder: dynamic binding against the current
// assignment.
func (rt *Runtime) Bind(act *task.Activity) (registry.Candidate, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.result.Assignment[act.ID]
	if !ok {
		return registry.Candidate{}, fmt.Errorf("adapt: no service bound to activity %q", act.ID)
	}
	return c, nil
}

var _ exec.Binder = (*Runtime)(nil)

// Consumed aggregates the observed QoS of the completed part of the
// behaviour (uncompleted activities contribute identity elements).
func (rt *Runtime) Consumed() qos.Vector {
	rt.mu.Lock()
	assign := make(map[string]qos.Vector, len(rt.observed))
	for id, v := range rt.observed {
		assign[id] = v
	}
	behaviour := rt.Behaviour
	rt.mu.Unlock()
	return behaviour.AggregateQoS(rt.Req.Properties, assign, rt.Req.EffectiveApproach())
}

// switchBehaviour installs an alternative behaviour and its fresh
// selection; activities of the new behaviour that the selection does not
// schedule (they were matched to already-done work) are marked completed.
func (rt *Runtime) switchBehaviour(newBehaviour *task.Task, sel *core.Result) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.Behaviour = newBehaviour
	// sel is a fresh selection made for this runtime alone.
	rt.result = sel
	rt.owned = true
	rt.version++
	// Completed activities of the old behaviour do not exist in the new
	// one: keep only observations (for consumed QoS the old behaviour's
	// aggregate was already folded into the residual constraints), and
	// reset completion tracking to the new behaviour's frame.
	rt.completed = make(map[string]bool)
	for _, a := range newBehaviour.Activities() {
		if _, scheduled := sel.Assignment[a.ID]; !scheduled {
			rt.completed[a.ID] = true
		}
	}
}

// Options tune the adaptation manager.
type Options struct {
	// MinSuccessRate disqualifies substitutes the monitor has seen
	// failing more often than this; 0 means 0.5.
	MinSuccessRate float64
	// Match configures the homeomorphism search of behavioural
	// adaptation (the manager fills in the registry's ontology when the
	// field is nil).
	Match graph.MatchOptions
	// RequireFeasible makes behavioural adaptation reject alternatives
	// whose re-selection violates the residual constraints. Default
	// false: the best-effort plan is returned when nothing feasible
	// exists.
	RequireFeasible bool
}

func (o Options) withDefaults() Options {
	if o.MinSuccessRate <= 0 {
		o.MinSuccessRate = 0.5
	}
	return o
}

// Manager coordinates the two adaptation strategies. It holds no
// per-composition state: one manager serves every runtime of a
// middleware.
type Manager struct {
	// Registry resolves candidate services.
	Registry *registry.Registry
	// Repo is the task-class repository.
	Repo *task.Repository
	// Selector re-runs QASSA during behavioural adaptation.
	Selector *core.Selector
	// Monitor, when set, filters substitutes by observed health.
	Monitor *monitor.Monitor
	// Metrics are the adaptation counters (see NewMetrics); the zero
	// value counts nothing.
	Metrics Metrics
	// Options tune the strategies.
	Options Options
}

// Metrics are the manager's counters, resolved once from a metrics
// registry so the failover scan never looks a counter up by name.
type Metrics struct {
	substitutions     *obs.Counter
	behaviourSwitches *obs.Counter
	registryChecks    *obs.Counter
	monitorChecks     *obs.Counter
}

// NewMetrics resolves the adaptation counters in the hub's metrics
// registry; a nil hub yields the zero (no-op) Metrics.
func NewMetrics(hub *obs.Hub) Metrics {
	if hub == nil {
		return Metrics{}
	}
	r := hub.Metrics
	return Metrics{
		substitutions: r.Counter("qasom_adapt_substitutions_total",
			"Service substitutions applied by the adaptation manager."),
		behaviourSwitches: r.Counter("qasom_adapt_behaviour_switches_total",
			"Behavioural adaptations applied (behaviour switched to an equivalent task)."),
		registryChecks: r.Counter("qasom_adapt_failover_registry_checks_total",
			"Registry liveness probes performed by the failover scan."),
		monitorChecks: r.Counter("qasom_adapt_failover_monitor_checks_total",
			"Monitor health probes performed by the failover scan."),
	}
}

// ErrNoSubstitute is wrapped when no alternate can replace a service.
var ErrNoSubstitute = fmt.Errorf("adapt: no substitute available")

// maxOptimisticScans bounds the unlocked rescans of Substitute before it
// degrades to the fully locked scan.
const maxOptimisticScans = 4

// scanScratch is the failover scan's reusable state: the candidate-ID
// snapshot and the registry presence of each snapshotted ID.
type scanScratch struct {
	ids  []registry.ServiceID
	live []bool
}

// scanScratchPool pools scanScratch values across failovers.
var scanScratchPool = sync.Pool{
	New: func() any {
		return &scanScratch{ids: make([]registry.ServiceID, 0, 16), live: make([]bool, 0, 16)}
	},
}

// Substitute replaces the service bound to an activity by the first
// alternate, in rotation order, that is not excluded, still published,
// healthy and dependency-admissible. It commits the rotation — the
// chosen alternate leaves the list, the displaced binding rejoins it at
// the tail — and returns the substitute.
//
// The scan does not hold the runtime lock while probing the registry
// and monitor: it snapshots the candidate IDs (and the runtime's
// mutation version) under the lock, probes outside it, then revalidates
// and commits. A concurrent commit triggers a bounded rescan; past the
// bound the scan runs fully locked, which guarantees termination.
func (m *Manager) Substitute(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool) (registry.Candidate, error) {
	minRate := m.Options.withDefaults().MinSuccessRate
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	for attempt := 0; attempt < maxOptimisticScans; attempt++ {
		// Dependency-inadmissible alternates never reach the probe
		// phase; the version guard at commit time keeps that filter
		// valid (any assignment change forces a rescan).
		rt.mu.Lock()
		version := rt.version
		sc.ids = rt.admissibleLocked(activityID, sc.ids[:0])
		rt.mu.Unlock()

		pick := m.scanEligible(sc, exclude, minRate)
		if pick == "" {
			return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
		}
		if cand, ok := m.commitScanned(rt, activityID, pick, version); ok {
			return cand, nil
		}
		// A concurrent commit moved the selection: rescan from the
		// current rotation order.
	}
	return m.substituteLocked(rt, activityID, exclude, minRate, sc)
}

// scanEligible walks the snapshotted candidate IDs in rotation order and
// returns the first one that is not excluded, still published and
// healthy. Presence is judged for all of them against one registry view,
// so a failover never sees each alternate at a different instant (and
// hence possibly every one of them at a moment it was withdrawn). The
// optimistic scan runs it without the runtime lock; every probe the walk
// reaches is counted.
func (m *Manager) scanEligible(sc *scanScratch, exclude map[registry.ServiceID]bool, minRate float64) registry.ServiceID {
	ids := sc.ids[:0]
	for _, id := range sc.ids {
		if !exclude[id] {
			ids = append(ids, id)
		}
	}
	sc.ids = ids
	if m.Registry != nil {
		sc.live = m.Registry.Published(ids, sc.live)
	}
	for i, id := range ids {
		if m.Registry != nil {
			m.Metrics.registryChecks.Inc()
			if !sc.live[i] {
				continue // withdrawn from the environment
			}
		}
		if m.Monitor != nil {
			m.Metrics.monitorChecks.Inc()
			if m.Monitor.SuccessRate(id) < minRate {
				continue
			}
		}
		return id
	}
	return ""
}

// commitScanned validates that no selection change raced the unlocked
// probe phase and commits the rotation. The version guard is coarse (any
// activity's commit bumps it) but cheap; a false positive just rescans.
func (m *Manager) commitScanned(rt *Runtime, activityID string, pick registry.ServiceID, version uint64) (registry.Candidate, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.version != version {
		return registry.Candidate{}, false
	}
	return m.commitLocked(rt, activityID, pick), true
}

// commitLocked rotates pick into the binding. Caller holds rt.mu and has
// established that pick is a current alternate.
func (m *Manager) commitLocked(rt *Runtime, activityID string, pick registry.ServiceID) registry.Candidate {
	rt.ownLocked()
	alts := rt.result.Alternates[activityID]
	pos := -1
	for i := range alts {
		if alts[i].Service.ID == pick {
			pos = i
			break
		}
	}
	if pos < 0 {
		return registry.Candidate{}
	}
	chosen := alts[pos]
	old := rt.result.Assignment[activityID]
	copy(alts[pos:], alts[pos+1:])
	if old.Service.ID != "" {
		alts[len(alts)-1] = old
	} else {
		alts = alts[:len(alts)-1]
	}
	rt.result.Alternates[activityID] = alts
	rt.result.Assignment[activityID] = chosen
	rt.substitutions++
	rt.version++
	m.Metrics.substitutions.Inc()
	return chosen
}

// substituteLocked scans and commits in one critical section, so no
// other commit can interleave: the termination guarantee of the
// optimistic scan under pathological commit churn.
func (m *Manager) substituteLocked(rt *Runtime, activityID string, exclude map[registry.ServiceID]bool, minRate float64, sc *scanScratch) (registry.Candidate, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sc.ids = rt.admissibleLocked(activityID, sc.ids[:0])
	pick := m.scanEligible(sc, exclude, minRate)
	if pick == "" {
		return registry.Candidate{}, fmt.Errorf("%w for activity %q", ErrNoSubstitute, activityID)
	}
	return m.commitLocked(rt, activityID, pick), nil
}

// excludeScratch pools the per-failover exclusion snapshots built by
// FailureHandler (one map per in-flight failover instead of one per
// call).
var excludeScratch = sync.Pool{
	New: func() any { return make(map[registry.ServiceID]bool, 8) },
}

// FailureHandler wires substitution into the executor as the
// terminal-failure handler: each terminally failed attempt excludes the
// failed service and substitutes the next alternate. The executor's
// resilience policy has already spent its backoff budget on retryable
// failures by the time this runs; the failure class still distinguishes
// them — a binding lost to a flaky link (Retryable) stays eligible for
// re-selection later, while an application-level failure (Terminal)
// excludes the service for the rest of the run.
func (m *Manager) FailureHandler(rt *Runtime) exec.FailureHandler {
	excluded := make(map[registry.ServiceID]bool)
	var mu sync.Mutex
	return func(act *task.Activity, failed registry.Candidate, attempt int, class resilience.Class) (registry.Candidate, error) {
		snapshot := excludeScratch.Get().(map[registry.ServiceID]bool)
		clear(snapshot)
		mu.Lock()
		if class != resilience.Retryable {
			excluded[failed.Service.ID] = true
		}
		for k, v := range excluded {
			snapshot[k] = v
		}
		// Even a link-failed binding must not be handed straight back:
		// exclude it from THIS substitution without remembering it.
		snapshot[failed.Service.ID] = true
		mu.Unlock()
		cand, err := m.Substitute(rt, act.ID, snapshot)
		clear(snapshot)
		excludeScratch.Put(snapshot)
		return cand, err
	}
}

// CompletionHook returns the executor OnComplete callback that keeps the
// runtime's progress tracking up to date using monitor estimates for the
// observed QoS (falling back to the advertised vector).
func (m *Manager) CompletionHook(rt *Runtime) func(string) {
	return func(activityID string) {
		var measured qos.Vector
		rt.mu.Lock()
		bound, ok := rt.result.Assignment[activityID]
		rt.mu.Unlock()
		if ok {
			if m.Monitor != nil {
				if est, has := m.Monitor.Estimate(bound.Service.ID); has {
					measured = est
				}
			}
			if measured == nil {
				measured = bound.Vector
			}
		}
		rt.MarkCompleted(activityID, measured)
	}
}
