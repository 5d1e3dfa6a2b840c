package registry

import (
	"testing"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// TestEpochBumpsOnMutation checks the global generation and the
// per-capability epochs move on every Publish/Withdraw (including
// QoS-only re-publishes) and stay still otherwise.
func TestEpochBumpsOnMutation(t *testing.T) {
	r := newTestRegistry()
	if r.Epoch() != 0 {
		t.Fatalf("fresh registry epoch = %d, want 0", r.Epoch())
	}
	before := r.CapabilityEpochs(nil, semantics.BookSale)

	if err := r.Publish(bookService("b1", 40)); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() == 0 {
		t.Error("Publish did not bump the global epoch")
	}
	after := r.CapabilityEpochs(nil, semantics.BookSale)
	if after[0] == before[0] {
		t.Error("Publish did not bump the BookSale capability epoch")
	}

	// QoS-only update (same ID, same capability) must bump too: cached
	// selections over the old vector are stale.
	gen := r.Epoch()
	cap0 := after[0]
	if err := r.Publish(bookService("b1", 55)); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() == gen {
		t.Error("re-publish did not bump the global epoch")
	}
	if e := r.CapabilityEpochs(nil, semantics.BookSale); e[0] == cap0 {
		t.Error("re-publish did not bump the capability epoch")
	}

	// Withdraw bumps; withdrawing an absent service does not.
	gen = r.Epoch()
	if !r.Withdraw("b1") {
		t.Fatal("withdraw failed")
	}
	if r.Epoch() == gen {
		t.Error("Withdraw did not bump the global epoch")
	}
	gen = r.Epoch()
	if r.Withdraw("b1") {
		t.Fatal("second withdraw should report absence")
	}
	if r.Epoch() != gen {
		t.Error("no-op Withdraw bumped the global epoch")
	}
}

// TestEpochCoversCapabilityClosure: publishing a CDSale service must
// move the epoch of every ancestor capability (MediaSale, Shopping) —
// a request asking for the general concept sees the new candidate — but
// leave unrelated capabilities untouched.
func TestEpochCoversCapabilityClosure(t *testing.T) {
	r := newTestRegistry()
	before := r.CapabilityEpochs(nil,
		semantics.CDSale, semantics.MediaSale, semantics.ShoppingService, semantics.CardPayment)
	cd := Description{ID: "cd1", Concept: semantics.CDSale, Offers: stdOffers(80, 5, 0.9, 0.9, 40)}
	if err := r.Publish(cd); err != nil {
		t.Fatal(err)
	}
	after := r.CapabilityEpochs(nil,
		semantics.CDSale, semantics.MediaSale, semantics.ShoppingService, semantics.CardPayment)
	for i, name := range []string{"CDSale", "MediaSale", "Shopping"} {
		if after[i] == before[i] {
			t.Errorf("%s epoch unchanged by a CDSale publish", name)
		}
	}
	if after[3] != before[3] {
		t.Error("CardPayment epoch moved on an unrelated publish")
	}
}

// TestEpochOntologyVersionAppended: CapabilityEpochs appends the
// ontology version, so concept-hierarchy mutations invalidate epoch
// snapshots even without registry churn.
func TestEpochOntologyVersionAppended(t *testing.T) {
	onto := semantics.PervasiveWithScenarios()
	r := New(onto)
	s1 := r.CapabilityEpochs(nil, semantics.BookSale)
	if len(s1) != 2 {
		t.Fatalf("snapshot length %d, want 2 (capability + ontology version)", len(s1))
	}
	if err := onto.AddConcept("EpochTestConcept", semantics.ShoppingService); err != nil {
		t.Fatal(err)
	}
	s2 := r.CapabilityEpochs(nil, semantics.BookSale)
	if s2[1] == s1[1] {
		t.Error("ontology mutation did not move the appended version component")
	}
}

// TestEpochRepublishAcrossCapabilities: moving a service to a different
// capability must stale both the old and the new capability's epoch.
func TestEpochRepublishAcrossCapabilities(t *testing.T) {
	r := newTestRegistry()
	if err := r.Publish(bookService("s1", 40)); err != nil {
		t.Fatal(err)
	}
	// Build the index so the stored index keys (old ancestry) are in play.
	ps := qos.StandardSet()
	if got := r.Candidates(semantics.BookSale, ps); len(got) != 1 {
		t.Fatalf("warm-up lookup returned %d candidates", len(got))
	}
	before := r.CapabilityEpochs(nil, semantics.BookSale, semantics.CardPayment)
	moved := Description{ID: "s1", Concept: semantics.CardPayment, Offers: stdOffers(30, 1, 0.99, 0.95, 10)}
	if err := r.Publish(moved); err != nil {
		t.Fatal(err)
	}
	after := r.CapabilityEpochs(nil, semantics.BookSale, semantics.CardPayment)
	if after[0] == before[0] {
		t.Error("old capability (BookSale) epoch unchanged after the service moved away")
	}
	if after[1] == before[1] {
		t.Error("new capability (CardPayment) epoch unchanged after the service moved in")
	}
}
