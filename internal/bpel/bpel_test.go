package bpel

import (
	"strings"
	"testing"

	"qasom/internal/semantics"
	"qasom/internal/task"
)

const shoppingBPEL = `<?xml version="1.0"?>
<process name="shopping" concept="Shopping">
  <sequence>
    <invoke activity="browse" name="Browse catalog" concept="BrowseCatalog" inputs="ItemDescription" outputs="ItemList"/>
    <flow>
      <invoke activity="book" concept="BookSale" inputs="ItemList" outputs="OrderRecord"/>
      <invoke activity="media" concept="MediaSale" inputs="ItemList" outputs="OrderRecord"/>
    </flow>
    <if>
      <branch probability="0.8">
        <invoke activity="card" concept="CardPayment" inputs="OrderRecord" outputs="Receipt"/>
      </branch>
      <branch probability="0.2">
        <invoke activity="cash" concept="CashPayment" inputs="OrderRecord" outputs="Receipt"/>
      </branch>
    </if>
    <while minIterations="1" maxIterations="3" expectedIterations="2">
      <invoke activity="pickup" concept="PickupDesk" inputs="Receipt"/>
    </while>
  </sequence>
</process>`

func TestParseShoppingProcess(t *testing.T) {
	tk, err := ParseString(shoppingBPEL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tk.Name != "shopping" || tk.Concept != semantics.ShoppingService {
		t.Errorf("task header = (%q, %q)", tk.Name, tk.Concept)
	}
	if got := tk.String(); got != "seq(browse, par(book, media), cho(card, cash), loop[1..3](pickup))" {
		t.Errorf("structure = %s", got)
	}
	browse := tk.ActivityByID("browse")
	if browse == nil {
		t.Fatal("browse activity missing")
	}
	if browse.Name != "Browse catalog" || browse.Concept != semantics.BrowseCatalog {
		t.Errorf("browse = %+v", browse)
	}
	if len(browse.Inputs) != 1 || browse.Inputs[0] != semantics.ItemDescription {
		t.Errorf("browse inputs = %v", browse.Inputs)
	}
	// Choice probabilities survive.
	var choice *task.Node
	tk.Walk(func(n *task.Node) {
		if n.Kind == task.PatternChoice {
			choice = n
		}
	})
	if choice == nil || len(choice.Probs) != 2 || choice.Probs[0] != 0.8 {
		t.Fatalf("choice probabilities lost: %+v", choice)
	}
	// Loop bounds survive.
	var loop *task.Node
	tk.Walk(func(n *task.Node) {
		if n.Kind == task.PatternLoop {
			loop = n
		}
	})
	if loop == nil || loop.Loop.Min != 1 || loop.Loop.Max != 3 || loop.Loop.Expected != 2 {
		t.Fatalf("loop bounds lost: %+v", loop)
	}
}

func TestParseImplicitSequenceInBranch(t *testing.T) {
	doc := `<process name="p" concept="C">
	  <if>
	    <branch>
	      <invoke activity="x"/>
	      <invoke activity="y"/>
	    </branch>
	    <branch><invoke activity="z"/></branch>
	  </if>
	</process>`
	tk, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tk.String(); got != "cho(seq(x, y), z)" {
		t.Errorf("structure = %s", got)
	}
	// No explicit probabilities → nil probs.
	if tk.Root.Probs != nil {
		t.Errorf("probs should be nil, got %v", tk.Root.Probs)
	}
}

func TestParseDirectChoiceChildren(t *testing.T) {
	doc := `<process name="p" concept="C">
	  <pick>
	    <invoke activity="x"/>
	    <invoke activity="y"/>
	  </pick>
	</process>`
	tk, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tk.String(); got != "cho(x, y)" {
		t.Errorf("structure = %s", got)
	}
}

func TestParseLoopDefaults(t *testing.T) {
	doc := `<process name="p" concept="C">
	  <while minIterations="4"><invoke activity="x"/></while>
	</process>`
	tk, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tk.String(); got != "loop[4..4](x)" {
		t.Errorf("structure = %s (max should default to min)", got)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"malformed xml", "<process"},
		{"wrong root", "<sequence/>"},
		{"unnamed process", `<process><invoke activity="a"/></process>`},
		{"empty process", `<process name="p"/>`},
		{"unsupported element", `<process name="p"><assign/></process>`},
		{"invoke without id", `<process name="p"><invoke concept="C"/></process>`},
		{"invoke with children", `<process name="p"><invoke activity="a"><invoke activity="b"/></invoke></process>`},
		{"empty sequence", `<process name="p"><sequence/></process>`},
		{"empty flow", `<process name="p"><flow/></process>`},
		{"empty if", `<process name="p"><if/></process>`},
		{"empty branch", `<process name="p"><if><branch/></if></process>`},
		{"empty while", `<process name="p"><while/></process>`},
		{"bad probability", `<process name="p"><if><branch probability="x"><invoke activity="a"/></branch></if></process>`},
		{"bad minIterations", `<process name="p"><while minIterations="x"><invoke activity="a"/></while></process>`},
		{"bad maxIterations", `<process name="p"><while maxIterations="x"><invoke activity="a"/></while></process>`},
		{"bad expectedIterations", `<process name="p"><while expectedIterations="x"><invoke activity="a"/></while></process>`},
		{"inverted loop bounds", `<process name="p"><while minIterations="5" maxIterations="2"><invoke activity="a"/></while></process>`},
		{"duplicate activities", `<process name="p"><sequence><invoke activity="a"/><invoke activity="a"/></sequence></process>`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.doc); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

// TestParseRejectsNonFiniteQoSModel pins that the QoS-model parameters
// of a document (branch probabilities, expected loop iterations) must be
// finite and consistent: a parsed task is shared by every request for the
// same document, so a poisoned value would skew every aggregation.
func TestParseRejectsNonFiniteQoSModel(t *testing.T) {
	branch := func(p string) string {
		return `<process name="p"><if><branch probability="` + p +
			`"><invoke activity="a"/></branch><branch probability="0.5"><invoke activity="b"/></branch></if></process>`
	}
	loop := func(attrs string) string {
		return `<process name="p"><while ` + attrs + `><invoke activity="a"/></while></process>`
	}
	tests := []struct {
		name string
		doc  string
		ok   bool
	}{
		{"finite probability", branch("0.5"), true},
		{"zero probability", branch("0"), true},
		{"NaN probability", branch("NaN"), false},
		{"+Inf probability", branch("+Inf"), false},
		{"-Inf probability", branch("-Inf"), false},
		{"negative probability", branch("-0.1"), false},
		{"expected inside bounds", loop(`minIterations="1" maxIterations="3" expectedIterations="2.5"`), true},
		{"expected zero (derived)", loop(`minIterations="1" maxIterations="3" expectedIterations="0"`), true},
		{"expected +Inf", loop(`minIterations="1" maxIterations="3" expectedIterations="+Inf"`), false},
		{"expected NaN", loop(`minIterations="1" maxIterations="3" expectedIterations="NaN"`), false},
		{"expected negative", loop(`minIterations="1" maxIterations="3" expectedIterations="-5"`), false},
		{"expected above max", loop(`minIterations="1" maxIterations="3" expectedIterations="7"`), false},
		{"expected below min", loop(`minIterations="2" maxIterations="3" expectedIterations="1"`), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseString(tt.doc)
			if tt.ok && err != nil {
				t.Errorf("valid document rejected: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(shoppingBPEL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	doc, err := Marshal(orig)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Parse(doc)
	if err != nil {
		t.Fatalf("re-Parse: %v\ndocument:\n%s", err, doc)
	}
	if orig.String() != back.String() {
		t.Errorf("round trip changed structure:\n  orig: %s\n  back: %s", orig, back)
	}
	if back.ActivityByID("browse").Name != "Browse catalog" {
		t.Error("activity name lost in round trip")
	}
	if len(back.ActivityByID("book").Inputs) != 1 {
		t.Error("inputs lost in round trip")
	}
	var choice *task.Node
	back.Walk(func(n *task.Node) {
		if n.Kind == task.PatternChoice {
			choice = n
		}
	})
	if choice == nil || choice.Probs == nil || choice.Probs[0] != 0.8 {
		t.Error("probabilities lost in round trip")
	}
}

func TestMarshalRejectsInvalidTask(t *testing.T) {
	if _, err := Marshal(&task.Task{Name: "bad"}); err == nil {
		t.Error("Marshal of invalid task should fail")
	}
}

func TestMarshalIndentation(t *testing.T) {
	tk := task.Linear("line", "C", 2)
	doc, err := Marshal(tk)
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	if !strings.Contains(s, "<sequence>") || !strings.Contains(s, `<invoke activity="a1"`) {
		t.Errorf("unexpected document:\n%s", s)
	}
}
