package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// The benchmark's own tracer. Spans are recorded here, around each call
// the benchmark makes into a module's public functions — never inside the
// program — and kept in memory until the run ends. A span's name is
// "<layer>.<call>", and its layer is the module it enters.

// interval is a [lo, hi) stretch of the recorder's clock.
type interval struct{ lo, hi time.Duration }

// span is one timed call. parent is the index of the enclosing span, -1
// for a root.
type span struct {
	name   string
	iv     interval
	parent int
	allocs uint64 // heap bytes allocated during the call, when tracked
}

// recorder collects spans and the traced operations that hold them on one
// goroutine. A nil *recorder runs every call untraced.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	ops   []interval
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// op runs one traced operation: its interval is the whole against which
// the layer self times are accounted.
func (r *recorder) op(fn func()) time.Duration {
	lo := r.now()
	fn()
	hi := r.now()
	r.ops = append(r.ops, interval{lo, hi})
	return hi - lo
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) { r.call(name, false, fn) }

// doAlloc is do that also records the heap bytes fn allocated.
func (r *recorder) doAlloc(name string, fn func()) { r.call(name, true, fn) }

func (r *recorder) call(name string, allocs bool, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, parent: parent})
	r.open = append(r.open, id)
	var a0 uint64
	if allocs {
		a0 = heapAllocBytes()
	}
	lo := r.now()
	fn()
	hi := r.now()
	if allocs {
		r.spans[id].allocs = heapAllocBytes() - a0
	}
	r.spans[id].iv = interval{lo, hi}
	r.open = r.open[:len(r.open)-1]
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// unionLen is the length of the union of ivs clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	var c []interval
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total time.Duration
	cur := interval{-1, -1}
	for _, iv := range c {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes gives each span's duration minus the part of its interval that
// its direct children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.iv)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.iv.hi - s.iv.lo - unionLen(children[i], s.iv.lo, s.iv.hi)
	}
	return out
}

// layerOf is the module a span enters.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// ledger accounts the traced operations' time to layers.
type ledger struct {
	total     time.Duration            // Σ traced operation durations
	uncovered time.Duration            // part of the operations no span covers
	self      map[string]time.Duration // self time by layer
	byName    map[string]time.Duration // self time by span name
	calls     map[string]int           // spans by name
	allocs    map[string]uint64        // tracked heap bytes by span name
}

func buildLedger(r *recorder) ledger {
	l := ledger{
		self:   map[string]time.Duration{},
		byName: map[string]time.Duration{},
		calls:  map[string]int{},
		allocs: map[string]uint64{},
	}
	var roots []interval
	for i, st := range selfTimes(r.spans) {
		s := r.spans[i]
		l.self[layerOf(s.name)] += st
		l.byName[s.name] += st
		l.calls[s.name]++
		l.allocs[s.name] += s.allocs
		if s.parent < 0 {
			roots = append(roots, s.iv)
		}
	}
	// Roots and operations are recorded in time order on one goroutine, so
	// one sweep finds the roots inside each operation.
	j := 0
	for _, op := range r.ops {
		for j < len(roots) && roots[j].hi <= op.lo {
			j++
		}
		k := j
		for k < len(roots) && roots[k].lo < op.hi {
			k++
		}
		l.total += op.hi - op.lo
		l.uncovered += op.hi - op.lo - unionLen(roots[j:k], op.lo, op.hi)
	}
	return l
}

// perOp returns a span name's self time per traced operation.
func (l ledger) perOp(name string, ops int, unit time.Duration) float64 {
	if ops == 0 {
		return 0
	}
	return float64(l.byName[name]) / float64(unit) / float64(ops)
}

// perCall returns a span name's mean self time per call.
func (l ledger) perCall(name string, unit time.Duration) float64 {
	if l.calls[name] == 0 {
		return 0
	}
	return float64(l.byName[name]) / float64(unit) / float64(l.calls[name])
}

// ledgerMetrics reports a workload's ledger: each layer's self time per
// traced operation, the uncovered share against its bound, the ledger gap
// and the tracing overhead, traced versus untraced end to end. untraced and
// traced are the whole-operation times (ms) of the untraced and traced
// operations, interleaved in the run.
// The gap compares the traced layers plus the uncovered remainder, per
// operation, with the untraced operations' mean: spans that double-count
// or a traced path that does other work than the untraced one open it.
func ledgerMetrics(res *result, l ledger, untraced, traced []float64, overhead float64, b ledgerBounds) {
	ops := len(traced)
	if ops == 0 || l.total <= 0 || len(untraced) == 0 {
		res.fail("no traced operations")
		return
	}
	res.note("ledger over %d traced operations, %.3f ms each:", ops, ms(l.total)/float64(ops))
	covered := layerSelf(res, l, ops)
	unc := float64(l.uncovered) / float64(l.total)
	whole := ms(covered+l.uncovered) / float64(ops)
	gap := whole/mean(untraced) - 1
	res.note("  %-12s %10.4f ms/op %6.2f%% (bound %.0f%%)", "uncovered", ms(l.uncovered)/float64(ops), 100*unc, 100*b.uncovered)
	res.note("  layers + uncovered %.4f ms/op vs untraced mean %.4f ms: gap %+.2f%% (bound %.0f%%); tracing overhead %+.2f%%",
		whole, mean(untraced), 100*gap, 100*b.gap, 100*overhead)
	res.set("bench.uncovered_pct", 100*unc, ops)
	res.set("bench.ledger_gap_pct", 100*gap, ops)
	res.set("bench.trace_overhead_pct", 100*overhead, ops)
	res.set("bench.traced_ops", float64(ops), ops)
	if math.Abs(gap) > b.gap {
		res.fail("ledger: traced layers + uncovered miss the untraced whole by %+.1f%%, bound %.0f%%", 100*gap, 100*b.gap)
	}
	if unc > b.uncovered {
		res.fail("ledger: %.1f%% of the traced time is uncovered, bound %.0f%%", 100*unc, 100*b.uncovered)
	}
}

// layerSelf reports the self time per operation of each layer the ledger
// of ops operations reaches, and returns their sum. A layer is reported
// from one ledger per workload.
func layerSelf(res *result, l ledger, ops int) time.Duration {
	known := map[string]bool{}
	for _, layer := range layers {
		known[layer] = true
	}
	var sum time.Duration
	for layer, d := range l.self {
		if !known[layer] {
			panic("e2ebench: span outside the layer list: " + layer)
		}
		sum += d
	}
	for _, layer := range layers {
		d, ok := l.self[layer]
		if !ok {
			continue
		}
		if _, dup := res.metrics[layer+".self_ms"]; dup {
			panic("e2ebench: layer " + layer + " in two ledgers")
		}
		res.set(layer+".self_ms", ms(d)/float64(ops), ops)
		res.note("  %-12s %10.4f ms/op %6.2f%%", layer, ms(d)/float64(ops), 100*float64(d)/float64(l.total))
	}
	return sum
}

// ledgerBounds are a workload's fixed bounds on its ledger: the share of
// the traced time no span covers, and the gap — how far the traced layers
// plus the uncovered remainder may sit from the untraced operations they
// stand for, tracing's own cost included.
type ledgerBounds struct{ uncovered, gap float64 }
