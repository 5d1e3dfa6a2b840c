// White-box tests for the task-document intern table: its bound, that
// only successful parses are interned, that registered behaviour names
// keep precedence over documents, and that an interned task stays
// untouched by everything a composition built on it does.
package qasom

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"qasom/internal/bpel"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

const internShopA = `<process name="intern-shopA" concept="Shopping">
  <sequence>
    <invoke activity="browse" concept="BrowseCatalog"/>
    <invoke activity="order" concept="OrderItem"/>
    <invoke activity="pay" concept="Payment"/>
  </sequence>
</process>`

const internShopB = `<process name="intern-shopB" concept="Shopping">
  <sequence>
    <invoke activity="fulfil" concept="Shopping"/>
    <invoke activity="mpay" concept="MobilePayment"/>
  </sequence>
</process>`

// internMall publishes four services per capability of the two shopping
// behaviours and registers them as one task class.
func internMall(t *testing.T, opts Options) *Middleware {
	t.Helper()
	mw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, capability := range []string{"BrowseCatalog", "OrderItem", "CardPayment", "Shopping", "MobilePayment"} {
		for i := 0; i < 4; i++ {
			err := mw.Publish(Service{
				ID:         fmt.Sprintf("%s-%d", capability, i),
				Capability: capability,
				QoS: map[string]float64{
					"responseTime": 40 + float64(5*i), "price": 5,
					"availability": 0.95, "reliability": 0.9, "throughput": 40,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := mw.RegisterTaskClass("intern-shopping", internShopA, internShopB); err != nil {
		t.Fatal(err)
	}
	return mw
}

// internedDocs counts the documents in the intern table's current
// generation.
func internedDocs(mw *Middleware) int {
	n := 0
	mw.docs.gen.Load().docs.Range(func(any, any) bool { n++; return true })
	return n
}

// floodDoc is the i-th of a family of distinct, valid documents.
func floodDoc(i int) string {
	return fmt.Sprintf(`<process name="flood-%d" concept="Shopping"><invoke activity="a%d" concept="BrowseCatalog"/></process>`, i, i)
}

// diffResolution returns an error unless r matches a fresh parse of doc.
func diffResolution(doc string, r *resolvedTask) error {
	fresh, err := bpel.ParseString(doc)
	if err != nil {
		return err
	}
	if r.fp != fresh.Fingerprint() || r.task.String() != fresh.String() || r.task.Name != fresh.Name {
		return fmt.Errorf("interned resolution of %q diverged from a fresh parse", doc)
	}
	acts := fresh.Activities()
	if len(r.concepts) != len(acts) {
		return fmt.Errorf("interned concepts %v, want one per activity of %s", r.concepts, fresh)
	}
	for i, a := range acts {
		if r.concepts[i] != a.Concept {
			return fmt.Errorf("interned concepts %v diverge from %s", r.concepts, fresh)
		}
	}
	return nil
}

func TestInternReusesResolution(t *testing.T) {
	mw := internMall(t, Options{})
	first, err := mw.resolveTask(internShopA)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffResolution(internShopA, first); err != nil {
		t.Fatal(err)
	}
	again, err := mw.resolveTask(internShopA)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("a repeated document should reuse the interned resolution")
	}
}

// TestInternConcurrentFlood resolves several times more distinct
// documents than the table holds, from several goroutines at once: the
// table never grows past its bound and every answer matches a fresh
// parse.
func TestInternConcurrentFlood(t *testing.T) {
	mw := internMall(t, Options{})
	const docs = 3 * maxInternedDocs
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < docs; k++ {
				doc := floodDoc((k*7 + w*docs/workers) % docs)
				r, err := mw.resolveTask(doc)
				if err != nil {
					t.Error(err)
					return
				}
				if err := diffResolution(doc, r); err != nil {
					t.Error(err)
					return
				}
				if n := internedDocs(mw); n > maxInternedDocs {
					t.Errorf("intern table holds %d documents, bound %d", n, maxInternedDocs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// The table cleared itself rather than freezing: recent documents are
	// interned, and a further flood still gets interned.
	doc := floodDoc(docs + 1)
	if _, err := mw.resolveTask(doc); err != nil {
		t.Fatal(err)
	}
	if mw.docs.load(doc) == nil {
		t.Error("a new document after the flood should be interned")
	}
}

func TestInternNeverStoresParseErrors(t *testing.T) {
	mw := internMall(t, Options{})
	bad := []string{
		"<process",
		`<process name="p"><if><branch probability="NaN"><invoke activity="x"/></branch></if></process>`,
	}
	for _, doc := range bad {
		for i := 0; i < 3; i++ {
			if _, err := mw.resolveTask(doc); err == nil {
				t.Fatalf("call %d: malformed document %q accepted", i, doc)
			}
			if mw.docs.load(doc) != nil {
				t.Fatalf("malformed document %q was interned", doc)
			}
		}
	}
	if n := internedDocs(mw); n != 0 {
		t.Errorf("intern table holds %d documents after only parse errors", n)
	}
}

// TestInternBehaviourNamePrecedence registers a behaviour whose name is
// the exact text of an already-interned document: the registered
// behaviour wins from then on.
func TestInternBehaviourNamePrecedence(t *testing.T) {
	mw := internMall(t, Options{})
	const doc = `<process name="p" concept="Shopping"><invoke activity="a" concept="BrowseCatalog"/></process>`
	if _, err := mw.resolveTask(doc); err != nil {
		t.Fatal(err)
	}
	if mw.docs.load(doc) == nil {
		t.Fatal("document should be interned")
	}
	named := &task.Task{Name: doc, Concept: semantics.ShoppingService,
		Root: task.NewActivity(&task.Activity{ID: "b", Concept: semantics.OrderItem})}
	if err := mw.repo.Register(&task.Class{Name: "by-name", Concept: semantics.ShoppingService,
		Behaviours: []*task.Task{named}}); err != nil {
		t.Fatal(err)
	}
	r, err := mw.resolveTask(doc)
	if err != nil {
		t.Fatal(err)
	}
	if r.task != named {
		t.Fatalf("resolved %s, want the registered behaviour named by the spec", r.task)
	}
	if r.fp != named.Fingerprint() || len(r.concepts) != 1 || r.concepts[0] != semantics.OrderItem {
		t.Error("behaviour resolution carries the wrong fingerprint or concepts")
	}
}

// TestInternSurvivesBehaviourSwitch adapts a composition built on an
// interned document to another behaviour: the interned task is
// unchanged, so later requests for the document still see exactly what
// a fresh parse yields.
func TestInternSurvivesBehaviourSwitch(t *testing.T) {
	mw := internMall(t, Options{})
	comp, err := mw.Compose(Request{Task: internShopA})
	if err != nil {
		t.Fatal(err)
	}
	interned := mw.docs.load(internShopA)
	if interned == nil {
		t.Fatal("composed document should be interned")
	}
	for i := 0; i < 4; i++ {
		mw.Withdraw(fmt.Sprintf("OrderItem-%d", i))
	}
	report, err := mw.Execute(context.Background(), comp)
	if err != nil {
		t.Fatal(err)
	}
	if report.BehaviourSwitches == 0 || comp.Behaviour() != "intern-shopB" {
		t.Fatalf("expected a switch to intern-shopB, got %d switches, behaviour %s",
			report.BehaviourSwitches, comp.Behaviour())
	}
	if mw.docs.load(internShopA) != interned {
		t.Fatal("the interned resolution was replaced")
	}
	if err := diffResolution(internShopA, interned); err != nil {
		t.Fatal(err)
	}
	if interned.task.Fingerprint() != interned.fp {
		t.Error("the interned task changed after the behavioural switch")
	}
}

// TestInternEveryMode pins that distributed, Pareto-mode and cache-less
// requests resolve through the same intern table.
func TestInternEveryMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		req  Request
	}{
		{"cached", Options{}, Request{Task: internShopA}},
		{"cache disabled", Options{SelectionCacheSize: -1}, Request{Task: internShopA}},
		{"pareto", Options{ParetoMode: true}, Request{Task: internShopA}},
		{"distributed", Options{}, Request{Task: internShopA, Distributed: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mw := internMall(t, tc.opts)
			if _, err := mw.Compose(tc.req); err != nil {
				t.Fatal(err)
			}
			if mw.docs.load(internShopA) == nil {
				t.Error("document not interned")
			}
		})
	}
}
