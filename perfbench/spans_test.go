package main

import (
	"math/rand/v2"
	"testing"
)

func TestSelfTimeExample(t *testing.T) {
	spans := []span{
		{Name: "core.capture", Parent: -1, Start: 0, End: 100},
		{Name: "kernels.instance", Parent: 0, Start: 10, End: 30},
		{Name: "gpusim.run", Parent: 0, Start: 20, End: 60},     // overlaps its sibling
		{Name: "kernels.check", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []int64{100 - 50 - 10, 20, 40, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
	layers := layerSelfTimes(spans)
	if layers["kernels"] != 50e-9 || layers["core"] != 40e-9 {
		t.Errorf("layer self times %v", layers)
	}
}

// TestSelfTimeNeverExceedsDuration checks random span forests.
func TestSelfTimeNeverExceedsDuration(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 0; i < 1+r.IntN(30); i++ {
			parent := -1
			if i > 0 && r.IntN(4) > 0 {
				parent = r.IntN(i)
			}
			start := r.Int64N(1000)
			if parent >= 0 {
				start = spans[parent].Start + r.Int64N(spans[parent].duration()+1)
			}
			spans = append(spans, span{Parent: parent, Start: start, End: start + r.Int64N(500)})
		}
		for i, self := range selfTimes(spans) {
			if self > spans[i].duration() || self < 0 {
				t.Fatalf("trial %d span %d: self %d, duration %d", trial, i, self, spans[i].duration())
			}
		}
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	id := tr.newID()
	root := tr.start("core.capture", id, -1)
	tr.timed("kernels.check", id, root, func() {})
	tr.end(root)
	var none *tracer
	if none.timed("x.y", none.newID(), -1, func() {}) < 0 {
		t.Error("a nil tracer still times the call")
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].ID != spans[0].ID {
		t.Fatalf("spans %+v", spans)
	}
	if self := selfTimes(spans); self[0] > spans[0].duration() {
		t.Errorf("self %d > duration %d", self[0], spans[0].duration())
	}
}
