package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// buildTrace records one small deterministic tree.
func buildTrace(seed int64) *Tracer {
	tr := NewTracer(seed)
	root := tr.Start("round").Attr("q", 2)
	slot := root.Child("slot").Attr("cmd", "query")
	slot.Child("pie_downlink").Attr("delivered", true).End()
	slot.Child("fm0_uplink").Attr("delivered", true).End()
	slot.Attr("outcome", "single")
	slot.End()
	root.End()
	return tr
}

// TestTracerDeterministicIDs pins that the same seed and span order
// reproduce the same tree byte for byte, and that a different seed changes
// the IDs but not the structure.
func TestTracerDeterministicIDs(t *testing.T) {
	a, b := buildTrace(42).Tree(), buildTrace(42).Tree()
	if a != b {
		t.Errorf("same seed, different trees\n--- a\n%s--- b\n%s", a, b)
	}
	c := buildTrace(43).Tree()
	if a == c {
		t.Error("different seeds must draw different span IDs")
	}
	strip := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if i := strings.IndexByte(line, '['); i >= 0 {
				line = line[:i] + line[i+10:] // drop "[xxxxxxxx]"
			}
			if i := strings.Index(line, "trace="); i >= 0 {
				line = line[:i] + line[i+len("trace=")+16:] // drop the trace ID
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	if strip(a) != strip(c) {
		t.Errorf("seed must only change IDs\n--- a\n%s--- c\n%s", strip(a), strip(c))
	}
}

// TestTracerSubtreesAreOrderFree pins the keyed-ID contract: two subtrees
// built by concurrent goroutines render the same tree as when they are
// built one after the other, because a child's ID depends only on its
// parent and its ordinal under that parent.
func TestTracerSubtreesAreOrderFree(t *testing.T) {
	// build records one capsule's subtree, calling step between spans so
	// the caller can interleave two builders.
	build := func(parent *Span, step func()) {
		read := parent.Child("read").Attr("sensor", "strain")
		step()
		for a := 0; a < 3; a++ {
			att := read.Child("attempt").Attr("n", a)
			step()
			att.Child("deliver").Attr("outcome", "reply").End()
			step()
			att.End()
		}
		read.End()
	}
	// run opens the two capsule spans up front, then hands them to fill.
	run := func(fill func(a, b *Span)) string {
		tr := NewTracer(42)
		root := tr.Start("survey")
		a, b := root.Child("capsule").Attr("n", 0), root.Child("capsule").Attr("n", 1)
		fill(a, b)
		a.End()
		b.End()
		root.End()
		return tr.Tree()
	}
	sequential := run(func(a, b *Span) {
		build(a, func() {})
		build(b, func() {})
	})
	// Lockstep: the goroutines pass a baton at every step, so they take
	// strict turns, one span each — every ID is created in a different
	// order from the sequential run. Both builders take the same number of
	// steps, so A's last hand-off releases B's last wait.
	lockstep := run(func(a, b *Span) {
		baton := make(chan struct{})
		pass := func() { baton <- struct{}{}; <-baton }
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); build(a, pass); baton <- struct{}{} }()
		go func() { defer wg.Done(); <-baton; build(b, pass) }()
		wg.Wait()
	})
	if lockstep != sequential {
		t.Errorf("lockstep subtrees diverged from sequential\n--- lockstep\n%s--- sequential\n%s", lockstep, sequential)
	}
	for i := 0; i < 20; i++ {
		free := run(func(a, b *Span) {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); build(a, func() {}) }()
			go func() { defer wg.Done(); build(b, func() {}) }()
			wg.Wait()
		})
		if free != sequential {
			t.Fatalf("concurrent subtrees diverged from sequential\n--- concurrent\n%s--- sequential\n%s", free, sequential)
		}
	}
}

// TestTracerTreeShape pins nesting, attribute order and the UNFINISHED
// marker.
func TestTracerTreeShape(t *testing.T) {
	tr := NewTracer(1)
	root := tr.Start("read").Attr("handle", "0x10")
	root.Child("attempt").Attr("n", 1).End()
	// root deliberately left un-Ended.
	got := tr.Tree()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree has %d lines, want 2:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "read [") || !strings.Contains(lines[0], "handle=0x10") {
		t.Errorf("root line malformed: %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], "UNFINISHED") {
		t.Errorf("unended root must be marked UNFINISHED: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  attempt [") || !strings.HasSuffix(lines[1], "n=1") {
		t.Errorf("child line malformed: %q", lines[1])
	}
}

// TestTracerRemoteParent pins the cross-process stitching contract: a
// StartRemote root joins the parent's trace, renders the remote parent as
// remote_parent=<trace>/<span>, and its children inherit the trace ID.
func TestTracerRemoteParent(t *testing.T) {
	server := NewTracer(42)
	broadcast := server.Start("broadcast")
	ctx := broadcast.Context()
	broadcast.End()

	client := NewTracer(99)
	receipt := client.StartRemote("receipt", ctx).Attr("type", "status")
	kid := receipt.Child("decode")
	kid.End()
	receipt.End()

	if got := receipt.Context().TraceID; got != ctx.TraceID {
		t.Errorf("remote root trace %016x, want parent trace %016x", got, ctx.TraceID)
	}
	if kid.Context().TraceID != ctx.TraceID {
		t.Error("child of a remote root must inherit the remote trace ID")
	}
	tree := client.Tree()
	want := fmt.Sprintf("remote_parent=%016x/%08x", ctx.TraceID, ctx.SpanID)
	if !strings.Contains(tree, want) {
		t.Errorf("tree %q does not name the remote parent %q", tree, want)
	}
	if strings.Contains(tree, "trace=") {
		t.Errorf("remote root must render remote_parent, not trace=: %q", tree)
	}
}

// TestTracerLocalRootsCarryDistinctTraces pins that every Start draws a
// fresh trace ID and renders it on the root line.
func TestTracerLocalRootsCarryDistinctTraces(t *testing.T) {
	tr := NewTracer(5)
	a, b := tr.Start("a"), tr.Start("b")
	a.End()
	b.End()
	if a.Context().TraceID == b.Context().TraceID {
		t.Error("sibling roots must not share a trace ID")
	}
	for _, line := range strings.Split(strings.TrimRight(tr.Tree(), "\n"), "\n") {
		if !strings.Contains(line, "trace=") {
			t.Errorf("root line missing trace ID: %q", line)
		}
	}
}

// TestTracerReset drops recorded spans but keeps drawing fresh IDs.
func TestTracerReset(t *testing.T) {
	tr := NewTracer(7)
	first := tr.Start("a")
	first.End()
	firstID := first.ID()
	tr.Reset()
	if tr.Tree() != "" {
		t.Errorf("tree after reset = %q, want empty", tr.Tree())
	}
	second := tr.Start("b")
	if second.ID() == firstID {
		t.Error("IDs must keep advancing across Reset")
	}
}
