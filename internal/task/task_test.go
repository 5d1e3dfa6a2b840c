package task

import (
	"math"
	"strings"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

func act(id string) *Node {
	return NewActivity(&Activity{ID: id, Concept: semantics.ConceptID("C" + id)})
}

// shoppingTask builds seq(a, par(b, c), cho(d, e), loop(f)).
func shoppingTask() *Task {
	return &Task{
		Name:    "shopping",
		Concept: semantics.ShoppingService,
		Root: Sequence(
			act("a"),
			Parallel(act("b"), act("c")),
			Choice([]float64{0.7, 0.3}, act("d"), act("e")),
			LoopNode(qos.Loop{Min: 1, Max: 3, Expected: 2}, act("f")),
		),
	}
}

func TestValidate(t *testing.T) {
	if err := shoppingTask().Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	tests := []struct {
		name string
		task *Task
	}{
		{"nil root", &Task{Name: "x"}},
		{"unnamed", &Task{Root: act("a")}},
		{"leaf without activity", &Task{Name: "x", Root: &Node{Kind: PatternActivity}}},
		{"activity without id", &Task{Name: "x", Root: NewActivity(&Activity{})}},
		{"duplicate ids", &Task{Name: "x", Root: Sequence(act("a"), act("a"))}},
		{"empty sequence", &Task{Name: "x", Root: Sequence()}},
		{"probs mismatch", &Task{Name: "x", Root: Choice([]float64{1}, act("a"), act("b"))}},
		{"loop two bodies", &Task{Name: "x", Root: &Node{Kind: PatternLoop, Children: []*Node{act("a"), act("b")}}}},
		{"loop bad bounds", &Task{Name: "x", Root: &Node{Kind: PatternLoop, Children: []*Node{act("a")}, Loop: qos.Loop{Min: 3, Max: 1}}}},
		{"negative probability", &Task{Name: "x", Root: Choice([]float64{-0.1, 1}, act("a"), act("b"))}},
		{"NaN probability", &Task{Name: "x", Root: Choice([]float64{math.NaN(), 1}, act("a"), act("b"))}},
		{"infinite probability", &Task{Name: "x", Root: Choice([]float64{math.Inf(1), 1}, act("a"), act("b"))}},
		{"NaN expected iterations", &Task{Name: "x", Root: LoopNode(qos.Loop{Min: 1, Max: 3, Expected: math.NaN()}, act("a"))}},
		{"infinite expected iterations", &Task{Name: "x", Root: LoopNode(qos.Loop{Min: 1, Max: 3, Expected: math.Inf(1)}, act("a"))}},
		{"negative expected iterations", &Task{Name: "x", Root: LoopNode(qos.Loop{Min: 1, Max: 3, Expected: -5}, act("a"))}},
		{"expected iterations above max", &Task{Name: "x", Root: LoopNode(qos.Loop{Min: 1, Max: 3, Expected: 4}, act("a"))}},
		{"expected iterations below min", &Task{Name: "x", Root: LoopNode(qos.Loop{Min: 2, Max: 3, Expected: 1}, act("a"))}},
		{"unknown pattern", &Task{Name: "x", Root: &Node{Kind: Pattern(42), Children: []*Node{act("a")}}}},
		{"activity with children", &Task{Name: "x", Root: &Node{Kind: PatternActivity, Activity: &Activity{ID: "a"}, Children: []*Node{act("b")}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.task.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestActivitiesOrderAndLookup(t *testing.T) {
	task := shoppingTask()
	acts := task.Activities()
	ids := make([]string, len(acts))
	for i, a := range acts {
		ids[i] = a.ID
	}
	want := "a b c d e f"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("activity order = %q, want %q", got, want)
	}
	if task.Size() != 6 {
		t.Errorf("Size = %d, want 6", task.Size())
	}
	if a := task.ActivityByID("d"); a == nil || a.ID != "d" {
		t.Error("ActivityByID(d) failed")
	}
	if task.ActivityByID("zz") != nil {
		t.Error("ActivityByID(zz) should be nil")
	}
	sorted := task.ActivityIDs()
	if len(sorted) != 6 || sorted[0] != "a" || sorted[5] != "f" {
		t.Errorf("ActivityIDs = %v", sorted)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := shoppingTask()
	clone := orig.Clone()
	clone.ActivityByID("a").Concept = "Mutated"
	clone.Root.Children[2].Probs[0] = 0.99
	if orig.ActivityByID("a").Concept == "Mutated" {
		t.Error("activity mutation leaked into original")
	}
	if orig.Root.Children[2].Probs[0] != 0.7 {
		t.Error("probs mutation leaked into original")
	}
	if (*Task)(nil).Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestAggregateQoSOverTree(t *testing.T) {
	ps := qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Direction: qos.Minimized, Kind: qos.KindTime},
		&qos.Property{Name: "price", Direction: qos.Minimized, Kind: qos.KindCost},
		&qos.Property{Name: "avail", Direction: qos.Maximized, Kind: qos.KindProbability},
	)
	task := shoppingTask()
	assign := map[string]qos.Vector{
		"a": {10, 1, 0.9},
		"b": {20, 2, 0.9},
		"c": {30, 3, 0.9},
		"d": {40, 4, 0.9},
		"e": {50, 5, 0.8},
		"f": {60, 6, 0.9},
	}

	// Pessimistic: rt = 10 + max(20,30) + worst(40,50) + 3·60 = 270
	// price = 1 + (2+3) + worst(4,5) + 3·6 = 29
	// avail = .9 · (.9·.9) · min(.9,.8) · .9³
	got := task.AggregateQoS(ps, assign, qos.Pessimistic)
	wantRT, wantPrice := 270.0, 29.0
	wantAvail := 0.9 * (0.9 * 0.9) * 0.8 * math.Pow(0.9, 3)
	if math.Abs(got[0]-wantRT) > 1e-9 || math.Abs(got[1]-wantPrice) > 1e-9 || math.Abs(got[2]-wantAvail) > 1e-9 {
		t.Errorf("pessimistic = %v, want [%g %g %g]", got, wantRT, wantPrice, wantAvail)
	}

	// Optimistic: rt = 10 + 30 + best(40,50)=40 + 1·60 = 140
	got = task.AggregateQoS(ps, assign, qos.Optimistic)
	if math.Abs(got[0]-140) > 1e-9 {
		t.Errorf("optimistic rt = %g, want 140", got[0])
	}

	// Mean-value: rt = 10 + 30 + (0.7·40+0.3·50) + 2·60 = 203
	got = task.AggregateQoS(ps, assign, qos.MeanValue)
	if math.Abs(got[0]-203) > 1e-9 {
		t.Errorf("mean rt = %g, want 203", got[0])
	}
}

func TestAggregateQoSMissingActivity(t *testing.T) {
	ps := qos.MustNewPropertySet(
		&qos.Property{Name: "rt", Direction: qos.Minimized, Kind: qos.KindTime},
	)
	task := &Task{Name: "t", Root: Sequence(act("a"), act("b"))}
	got := task.AggregateQoS(ps, map[string]qos.Vector{"a": {10}}, qos.Pessimistic)
	if got[0] != 10 {
		t.Errorf("missing activity should contribute identity: %v", got)
	}
	empty := (&Task{Name: "e"}).AggregateQoS(ps, nil, qos.Pessimistic)
	if len(empty) != 1 || empty[0] != 0 {
		t.Errorf("nil root aggregate = %v", empty)
	}
}

func TestRemaining(t *testing.T) {
	task := shoppingTask()
	rem, ok := task.Remaining(map[string]bool{"a": true, "b": true})
	if !ok {
		t.Fatal("activities should remain")
	}
	ids := rem.ActivityIDs()
	want := []string{"c", "d", "e", "f"}
	if len(ids) != len(want) {
		t.Fatalf("remaining = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("remaining = %v, want %v", ids, want)
		}
	}
	// Single-child parallel collapsed to the child itself.
	if strings.Contains(rem.String(), "par(") {
		t.Errorf("singleton parallel should collapse: %s", rem)
	}
	// All done.
	all := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	if _, ok := task.Remaining(all); ok {
		t.Error("nothing should remain")
	}
	// Original untouched.
	if task.Size() != 6 {
		t.Error("Remaining must not mutate the original")
	}
}

func TestRemainingPrunesChoiceProbs(t *testing.T) {
	task := &Task{Name: "t", Root: Choice([]float64{0.5, 0.3, 0.2}, act("a"), act("b"), act("c"))}
	rem, ok := task.Remaining(map[string]bool{"b": true})
	if !ok {
		t.Fatal("should remain")
	}
	if rem.Root.Kind != PatternChoice || len(rem.Root.Probs) != 2 {
		t.Fatalf("pruned choice = %s probs %v", rem, rem.Root.Probs)
	}
	if rem.Root.Probs[0] != 0.5 || rem.Root.Probs[1] != 0.2 {
		t.Errorf("probs = %v, want [0.5 0.2]", rem.Root.Probs)
	}
}

func TestString(t *testing.T) {
	got := shoppingTask().String()
	want := "seq(a, par(b, c), cho(d, e), loop[1..3](f))"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if (&Task{}).String() != "task()" {
		t.Error("empty task String")
	}
}

func TestLinear(t *testing.T) {
	task := Linear("line", semantics.ShoppingService, 4)
	if err := task.Validate(); err != nil {
		t.Fatalf("Linear task invalid: %v", err)
	}
	if task.Size() != 4 || task.Root.Kind != PatternSequence {
		t.Errorf("Linear structure wrong: %s", task)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		PatternActivity: "activity", PatternSequence: "sequence",
		PatternParallel: "parallel", PatternChoice: "choice", PatternLoop: "loop",
		Pattern(9): "Pattern(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestActivityLabel(t *testing.T) {
	a := &Activity{ID: "id1"}
	if a.Label() != "id1" {
		t.Error("Label should default to ID")
	}
	a.Name = "Pretty"
	if a.Label() != "Pretty" {
		t.Error("Label should prefer Name")
	}
}
