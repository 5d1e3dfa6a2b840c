package bpel

import (
	"testing"
)

// FuzzParse ensures the BPEL front end never panics and that every
// accepted document yields a valid task that survives a marshal/parse
// round trip.
func FuzzParse(f *testing.F) {
	f.Add(shoppingBPEL)
	f.Add(`<process name="p" concept="C"><invoke activity="a"/></process>`)
	f.Add(`<process name="p"><if><branch probability="0.5"><invoke activity="x"/></branch></if></process>`)
	f.Add(`<process name="p"><while minIterations="2" maxIterations="5"><invoke activity="x"/></while></process>`)
	f.Add(`<process name="p"><flow><invoke activity="x"/><invoke activity="y"/></flow></process>`)
	f.Add(`<process`)
	f.Add(``)
	f.Add(`<process name="p"><invoke activity="a" inputs="A,B" outputs="C"/></process>`)
	f.Add(`<process name="p"><if><branch probability="NaN"><invoke activity="x"/></branch></if></process>`)
	f.Add(`<process name="p"><if><branch probability="+Inf"><invoke activity="x"/></branch></if></process>`)
	f.Add(`<process name="p"><while minIterations="1" maxIterations="3" expectedIterations="+Inf"><invoke activity="x"/></while></process>`)
	f.Add(`<process name="p"><while minIterations="1" maxIterations="3" expectedIterations="-5"><invoke activity="x"/></while></process>`)
	f.Fuzz(func(t *testing.T, doc string) {
		tk, err := ParseString(doc)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := tk.Validate(); verr != nil {
			t.Fatalf("accepted document produced invalid task: %v\ndoc: %q", verr, doc)
		}
		out, err := Marshal(tk)
		if err != nil {
			t.Fatalf("accepted task failed to marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("marshalled task failed to re-parse: %v\n%s", err, out)
		}
		if back.String() != tk.String() {
			t.Fatalf("round trip changed structure: %s vs %s", tk, back)
		}
	})
}

// FuzzParseExecutable checks the executable variant never panics and
// bindings survive round trips.
func FuzzParseExecutable(f *testing.F) {
	orig, err := ParseString(shoppingBPEL)
	if err != nil {
		f.Fatal(err)
	}
	doc, err := MarshalExecutable(orig, map[string]Binding{"browse": {Service: "s1", Address: "tcp://x"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(doc))
	f.Add(`<process name="p"><invoke activity="a" partner="svc"/></process>`)
	f.Fuzz(func(t *testing.T, doc string) {
		tk, bindings, err := ParseExecutable([]byte(doc))
		if err != nil {
			return
		}
		if tk == nil {
			t.Fatal("nil task without error")
		}
		for act, b := range bindings {
			if act == "" || b.Service == "" {
				t.Fatalf("degenerate binding %q → %+v", act, b)
			}
		}
	})
}
