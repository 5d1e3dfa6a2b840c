package registry

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// matchCalls is the ontology's cumulative Match count (memo hits plus
// misses): every Match call lands in exactly one of the two.
func matchCalls(o *semantics.Ontology) uint64 {
	s := o.Stats()
	return s.MatchHits + s.MatchMisses
}

// assertResolved checks a lookup against the All()-scan oracle: same
// services, same order, same vectors and match levels.
func assertResolved(t *testing.T, step string, r *Registry, c semantics.ConceptID, ps *qos.PropertySet) {
	t.Helper()
	got := r.Candidates(c, ps)
	want := scanCandidates(r, c, ps)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Candidates(%s) = %v, fresh resolution %v", step, c, candidateIDs(got), candidateIDs(want))
	}
}

// TestCandidatesMemoInvalidation pins every event that must retire a
// capability's memoized resolution: a publish or withdraw on the key, a
// publish of a sub-concept service (filed under the key as an ancestor),
// an ontology alias or concept added, and a lookup under another
// property set. Each step warms the memo first, so a stale memo would
// be served if the event failed to invalidate it.
func TestCandidatesMemoInvalidation(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	r := New(onto)
	std := qos.StandardSet()
	sub, err := std.SubSet(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Publish(bookService(fmt.Sprintf("b%d", i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name   string
		lookup semantics.ConceptID
		mutate func() error
		wantN  int
	}{
		{"publish on key", semantics.BookSale, func() error { return r.Publish(bookService("b3", 40)) }, 4},
		{"republish on key", semantics.BookSale, func() error { return r.Publish(bookService("b3", 90)) }, 4},
		{"withdraw on key", semantics.BookSale, func() error {
			if !r.Withdraw("b0") {
				return fmt.Errorf("b0 not withdrawn")
			}
			return nil
		}, 3},
		{"sub-concept publish", semantics.ShoppingService, func() error {
			return r.Publish(Description{ID: "cd0", Concept: semantics.CDSale, Offers: stdOffers(70, 5, 0.9, 0.9, 40)})
		}, 4},
		{"ontology alias added", semantics.BookSale, func() error {
			// lag0 advertises response time under a word the ontology
			// learns only now: it becomes a candidate once the alias lands.
			d := bookService("lag0", 30)
			d.Offers[0].Property = "Lag"
			if err := r.Publish(d); err != nil {
				return err
			}
			if n := len(r.Candidates(semantics.BookSale, std)); n != 3 {
				return fmt.Errorf("before alias: %d candidates, want 3", n)
			}
			return onto.AddAlias("Lag", semantics.ResponseTime)
		}, 4},
		{"ontology concept added", semantics.BookSale, func() error {
			if err := r.Publish(Description{ID: "rare0", Concept: "RareBookSale", Offers: stdOffers(60, 5, 0.9, 0.9, 40)}); err != nil {
				return err
			}
			if n := len(r.Candidates(semantics.BookSale, std)); n != 4 {
				return fmt.Errorf("before concept: %d candidates, want 4", n)
			}
			return onto.AddConcept("RareBookSale", semantics.BookSale)
		}, 5},
	}
	for _, st := range steps {
		r.Candidates(st.lookup, std) // warm the memo
		if err := st.mutate(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if n := len(r.Candidates(st.lookup, std)); n != st.wantN {
			t.Errorf("%s: %d candidates, want %d", st.name, n, st.wantN)
		}
		assertResolved(t, st.name, r, st.lookup, std)
	}

	// A second property set must not be served the first one's vectors,
	// in either order.
	for _, ps := range []*qos.PropertySet{sub, std, sub} {
		got := r.Candidates(semantics.BookSale, ps)
		for _, c := range got {
			if len(c.Vector) != ps.Len() {
				t.Fatalf("property set of arity %d served a vector of arity %d", ps.Len(), len(c.Vector))
			}
		}
		assertResolved(t, "second property set", r, semantics.BookSale, ps)
	}
}

// TestCandidatesMemoZeroMatchCalls pins the point of the memo: a repeat
// lookup at an unchanged epoch re-runs no capability matching.
func TestCandidatesMemoZeroMatchCalls(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	r := New(onto)
	ps := qos.StandardSet()
	for i := 0; i < 8; i++ {
		if err := r.Publish(bookService(fmt.Sprintf("b%d", i), 50+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	first := r.Candidates(semantics.ShoppingService, ps)
	before := matchCalls(onto)
	second := r.Candidates(semantics.ShoppingService, ps)
	if d := matchCalls(onto) - before; d != 0 {
		t.Errorf("repeat lookup made %d Match calls, want 0", d)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeat lookup %v differs from first %v", candidateIDs(second), candidateIDs(first))
	}
	// The next epoch resolves again.
	if err := r.Publish(bookService("b8", 45)); err != nil {
		t.Fatal(err)
	}
	before = matchCalls(onto)
	r.Candidates(semantics.ShoppingService, ps)
	if matchCalls(onto) == before {
		t.Error("lookup after a publish made no Match calls: memo survived the epoch bump")
	}
}

// TestCandidatesCallerEditsIsolated pins that every lookup hands out its
// own slice: a caller filtering in place (as CandidatesForActivity does)
// or reordering its result must not change the next lookup's answer.
func TestCandidatesCallerEditsIsolated(t *testing.T) {
	r := newTestRegistry()
	ps := qos.StandardSet()
	for i := 0; i < 4; i++ {
		d := bookService(fmt.Sprintf("b%d", i), 50+float64(i))
		if i%2 == 0 {
			d.Outputs = []semantics.ConceptID{semantics.BookSale}
		}
		if err := r.Publish(d); err != nil {
			t.Fatal(err)
		}
	}
	want := candidateIDs(r.Candidates(semantics.BookSale, ps))

	got := r.Candidates(semantics.BookSale, ps)
	got[0], got[3] = got[3], got[0]
	kept := got[:0]
	for _, c := range got {
		if c.Service.ID != "b1" {
			kept = append(kept, c)
		}
	}
	if len(kept) != len(want)-1 {
		t.Fatalf("caller filter kept %d of %d", len(kept), len(want))
	}
	if ids := candidateIDs(r.Candidates(semantics.BookSale, ps)); !reflect.DeepEqual(ids, want) {
		t.Errorf("after caller edits: %v, want %v", ids, want)
	}

	act := &task.Activity{ID: "buy", Concept: semantics.BookSale, Outputs: []semantics.ConceptID{semantics.BookSale}}
	if n := len(r.CandidatesForActivity(act, ps)); n != 2 {
		t.Fatalf("CandidatesForActivity kept %d, want 2", n)
	}
	if ids := candidateIDs(r.Candidates(semantics.BookSale, ps)); !reflect.DeepEqual(ids, want) {
		t.Errorf("after CandidatesForActivity: %v, want %v", ids, want)
	}
}

// TestRacedMemoLookups races memoized lookups, under two property sets,
// against publish/withdraw churn on the same capability. Every read must
// carry vectors of its own property set's arity and, when bracketed by
// equal capability epochs, the same answer as every other read at that
// epoch; once churn stops, every lookup must equal a fresh resolution
// over All().
func TestRacedMemoLookups(t *testing.T) {
	r := newTestRegistry()
	std := qos.StandardSet()
	sub, err := std.SubSet(2)
	if err != nil {
		t.Fatal(err)
	}
	pss := []*qos.PropertySet{std, sub}
	for b := 0; b < 4; b++ {
		if err := r.Publish(bookService(fmt.Sprintf("base-%d", b), 20+float64(b))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var churners, readers sync.WaitGroup
	for c := 0; c < 2; c++ {
		churners.Add(1)
		go func(c int) {
			defer churners.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", c, i%3)
				_ = r.Publish(bookService(id, 30+float64(i%7)))
				if i%2 == 0 {
					r.Withdraw(ServiceID(id))
				}
			}
		}(c)
	}

	type key struct {
		epoch uint64
		ps    int
	}
	var mu sync.Mutex
	seen := make(map[key][]Candidate)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				pi := (g + i) % len(pss)
				ps := pss[pi]
				e1 := r.CapabilityEpochs(nil, semantics.BookSale)
				got := r.Candidates(semantics.BookSale, ps)
				e2 := r.CapabilityEpochs(nil, semantics.BookSale)
				for _, c := range got {
					if len(c.Vector) != ps.Len() {
						t.Errorf("arity %d read served vector of arity %d", ps.Len(), len(c.Vector))
						return
					}
				}
				// Scribble over the caller-owned slice: shared state must
				// not see it.
				for j := range got {
					got[j] = Candidate{}
				}
				if e1[0] != e2[0] {
					continue
				}
				again := r.Candidates(semantics.BookSale, ps)
				if e3 := r.CapabilityEpochs(nil, semantics.BookSale); e3[0] != e1[0] {
					continue
				}
				mu.Lock()
				k := key{e1[0], pi}
				if prev, ok := seen[k]; ok && !reflect.DeepEqual(prev, again) {
					t.Errorf("epoch %d: %v then %v", e1[0], candidateIDs(prev), candidateIDs(again))
				}
				seen[k] = again
				mu.Unlock()
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	churners.Wait()
	for _, ps := range pss {
		assertResolved(t, "after churn", r, semantics.BookSale, ps)
	}
}

// TestPublishRejectsNonFiniteOffers pins that Validate — shared by
// Publish and simulated deployment — refuses NaN and
// infinite offer values, which would otherwise fail every later
// selection over the capability.
func TestPublishRejectsNonFiniteOffers(t *testing.T) {
	r := newTestRegistry()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := bookService("bad", 50)
		d.Offers[1].Value = v
		if err := r.Publish(d); err == nil {
			t.Errorf("Publish accepted price = %v", v)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d, want 0", r.Len())
	}
	if got := r.Candidates(semantics.BookSale, qos.StandardSet()); len(got) != 0 {
		t.Errorf("rejected service resolved as candidate: %v", candidateIDs(got))
	}
}
