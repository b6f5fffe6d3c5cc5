package main

import (
	"math"
	"testing"
	"time"
)

func iv(lo, hi int) interval { return interval{time.Duration(lo), time.Duration(hi)} }

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int
		want   int
	}{
		{"empty", nil, 0, 10, 0},
		{"disjoint", []interval{iv(0, 2), iv(5, 7)}, 0, 10, 4},
		{"overlapping", []interval{iv(0, 4), iv(2, 6)}, 0, 10, 6},
		{"nested", []interval{iv(1, 9), iv(2, 3)}, 0, 10, 8},
		{"touching", []interval{iv(0, 2), iv(2, 4)}, 0, 10, 4},
		{"clipped", []interval{iv(-5, 3), iv(8, 20)}, 0, 10, 5},
		{"outside", []interval{iv(11, 12)}, 0, 10, 0},
	} {
		if got := unionLen(c.ivs, time.Duration(c.lo), time.Duration(c.hi)); got != time.Duration(c.want) {
			t.Errorf("%s: union %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// direct children, so overlapping children count once and grandchildren
// are charged to their own parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "fleet.survey", iv: iv(0, 100), parent: -1},
		{name: "reader.read", iv: iv(10, 40), parent: 0},
		{name: "reader.read", iv: iv(30, 50), parent: 0}, // overlaps its sibling
		{name: "channel.transmit", iv: iv(15, 25), parent: 1},
		{name: "phy.demod", iv: iv(60, 70), parent: 0},
	}
	want := []time.Duration{100 - 40 - 10, 30 - 10, 20, 10, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got, want[i])
		}
	}
}

// TestLedgerAddsUp: layer self times plus uncovered time equal the traced
// operations' total when spans nest inside their operations.
func TestLedgerAddsUp(t *testing.T) {
	r := &recorder{
		ops: []interval{iv(0, 100), iv(200, 260)},
		spans: []span{
			{name: "fleet.survey", iv: iv(5, 90), parent: -1},
			{name: "reader.read", iv: iv(10, 40), parent: 0},
			{name: "shmwire.encode", iv: iv(210, 230), parent: -1},
			{name: "shmwire.broadcast", iv: iv(230, 250), parent: -1},
		},
	}
	l := buildLedger(r)
	if l.total != 160 || l.uncovered != 15+20 {
		t.Fatalf("total %d uncovered %d, want 160 and 35", l.total, l.uncovered)
	}
	if l.self["fleet"] != 55 || l.self["reader"] != 30 || l.self["shmwire"] != 40 {
		t.Fatalf("self %v", l.self)
	}
	if sum := l.self["fleet"] + l.self["reader"] + l.self["shmwire"] + l.uncovered; sum != l.total {
		t.Fatalf("layers + uncovered = %d, total %d", sum, l.total)
	}
}

// TestLedgerGap: the gap compares the traced layers plus the uncovered
// remainder with the untraced operations, so a ledger that counts time
// twice, or a traced path slower than the untraced one, fails the run.
func TestLedgerGap(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	r := &recorder{
		ops:   []interval{{0, ms(10)}, {ms(20), ms(30)}},
		spans: []span{{name: "fleet.survey", iv: interval{ms(1), ms(9)}, parent: -1}},
	}
	for _, c := range []struct {
		name     string
		escaped  bool
		untraced []float64
		gap      float64
		ok       bool
	}{
		{"matching", false, []float64{9, 11}, 0, true},
		{"slow traced path", false, []float64{5, 5}, 100, false},
		{"double-counted span", true, []float64{9, 11}, 40, false},
	} {
		rr := *r
		if c.escaped {
			// A span outside every operation still counts as layer time.
			rr.spans = append(append([]span(nil), r.spans...), span{name: "dsp.noise", iv: interval{ms(12), ms(22)}, parent: -1})
		}
		res := newResult()
		ledgerMetrics(res, buildLedger(&rr), c.untraced, []float64{10, 10}, 0, ledgerBounds{uncovered: 1, gap: 0.2})
		if got := res.metrics["bench.ledger_gap_pct"].v; math.Abs(got-c.gap) > 1e-9 {
			t.Errorf("%s: gap %g%%, want %g%%", c.name, got, c.gap)
		}
		if ok := len(res.problems) == 0; ok != c.ok {
			t.Errorf("%s: passed %v, want %v (%v)", c.name, ok, c.ok, res.problems)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.op(func() {
		r.do("fleet.survey", func() {
			r.do("reader.read", func() {})
			r.do("reader.read", func() {})
		})
		r.do("shmwire.encode", func() {})
	})
	parents := []int{-1, 0, 0, -1}
	if len(r.spans) != len(parents) {
		t.Fatalf("%d spans, want %d", len(r.spans), len(parents))
	}
	for i, s := range r.spans {
		if s.parent != parents[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.name, s.parent, parents[i])
		}
	}
	l := buildLedger(r)
	var sum time.Duration
	for _, d := range l.self {
		sum += d
	}
	if sum+l.uncovered != l.total {
		t.Errorf("recorded spans: layers + uncovered %d, total %d", sum+l.uncovered, l.total)
	}
	var nilRec *recorder
	ran := false
	nilRec.do("fleet.survey", func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the call")
	}
}
