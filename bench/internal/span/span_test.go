package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0, 1)
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded something: id=%d", id)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "rtt", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Name: "handler", StartNs: 200, EndNs: 800},
		{ID: 3, Parent: 2, Name: "clone", StartNs: 300, EndNs: 400},
		{ID: 4, Name: "open", StartNs: 5}, // never closed
	}
	total, self := Times(spans)
	if got := self["rtt"][0]; got != 400 {
		t.Fatalf("rtt self = %v, want 400", got)
	}
	if got := self["handler"][0]; got != 500 {
		t.Fatalf("handler self = %v, want 500", got)
	}
	if got := total["handler"][0]; got != 600 {
		t.Fatalf("handler total = %v, want 600", got)
	}
	if _, ok := total["open"]; ok {
		t.Fatal("unclosed span was counted")
	}
}

func TestWriteJSONKeepsParentLinks(t *testing.T) {
	r := New()
	root := r.Start("round", 0, 7)
	kid := r.Start("op", root, 7)
	r.End(kid)
	r.End(root)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []Span
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 || got[1].EndNs < got[1].StartNs {
		t.Fatalf("bad spans: %+v", got)
	}
}
