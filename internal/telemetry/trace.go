package telemetry

import (
	"fmt"
	"strings"
	"sync"

	"ecocapsule/internal/prng"
)

// Tracer records trees of spans with keyed, order-free IDs. A root's trace
// and span ID derive from (seed, root ordinal); a child's span ID derives
// from (parent trace, parent ID, child ordinal under that parent). A
// subtree built by one goroutine therefore gets the same IDs and shape
// whatever other goroutines trace at the same time, and the same seed
// reproduces the same tree byte for byte — which is what lets one
// interrogation round, or a survey fanned out over every core, be pinned
// as a golden file. Wall-clock time is deliberately absent from the
// rendered tree — durations would make goldens flaky — so spans carry their
// measurements as explicit attributes instead.
type Tracer struct {
	mu   sync.Mutex
	seed uint64
	// opened counts the roots ever started: the next root's ordinal.
	//ecolint:guardedby mu
	opened uint64
	//ecolint:guardedby mu
	roots []*Span
}

// NewTracer returns a tracer whose span IDs derive from seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{seed: uint64(seed)}
}

// SpanContext identifies one span inside one trace — the part of a span
// that can cross a process (or socket) boundary. A remote receiver feeds it
// to StartRemote to stitch its own spans under the originating trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint32
}

// Span is one node of a trace tree. Attributes keep insertion order so the
// rendering is deterministic.
type Span struct {
	tracer *Tracer
	trace  uint64
	id     uint32
	name   string
	attrs  []attr
	kids   []*Span
	ended  bool
	// remote is set on roots adopted from another process's trace via
	// StartRemote; it names the cross-boundary parent.
	remote *SpanContext
}

type attr struct{ key, val string }

// Start opens a root span under a fresh trace ID.
func (t *Tracer) Start(name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.rootKeyLocked()
	sp := &Span{tracer: t, trace: key, id: uint32(prng.Keyed(key)), name: name}
	t.roots = append(t.roots, sp)
	return sp
}

// rootKeyLocked claims the next root ordinal and returns its key. Caller
// holds t.mu.
func (t *Tracer) rootKeyLocked() uint64 {
	n := t.opened
	t.opened++
	return prng.Keyed(t.seed, n)
}

// StartRemote opens a root span whose parent lives in another process:
// the span joins the parent's trace instead of drawing a fresh trace ID,
// and the rendered tree names the remote parent so the two sides can be
// stitched together by trace and span ID.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := parent
	id := uint32(prng.Keyed(t.rootKeyLocked()))
	sp := &Span{tracer: t, trace: parent.TraceID, id: id, name: name, remote: &p}
	t.roots = append(t.roots, sp)
	return sp
}

// Child opens a sub-span inside the parent's trace. Its ID is keyed by the
// parent and the child's ordinal under it, so children opened on one
// parent from several goroutines get scheduling-dependent IDs and order;
// open those before the fan-out.
func (s *Span) Child(name string) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint32(prng.Keyed(s.trace, uint64(s.id), uint64(len(s.kids))))
	sp := &Span{tracer: t, trace: s.trace, id: id, name: name}
	s.kids = append(s.kids, sp)
	return sp
}

// Context returns the span's propagatable identity. The fields are set at
// creation and never change, so no lock is needed.
func (s *Span) Context() SpanContext {
	return SpanContext{TraceID: s.trace, SpanID: s.id}
}

// Attr records one key=value attribute; the value is rendered with %v.
func (s *Span) Attr(key string, value any) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.attrs = append(s.attrs, attr{key: key, val: fmt.Sprintf("%v", value)})
	return s
}

// Attrf records one key=value attribute with a format string.
func (s *Span) Attrf(key, format string, args ...any) *Span {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.attrs = append(s.attrs, attr{key: key, val: fmt.Sprintf(format, args...)})
	return s
}

// End marks the span complete. Ending twice is harmless.
func (s *Span) End() {
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ended = true
}

// ID returns the span's deterministic identifier.
func (s *Span) ID() string { return fmt.Sprintf("%08x", s.id) }

// Reset drops every recorded span. Root ordinals keep counting, so roots
// started after a Reset get fresh IDs within the tracer's lifetime.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots = nil
}

// Tree renders every root span as an indented deterministic tree. Roots
// carry their trace ID (or, for remotely-parented roots, the cross-process
// parent as remote_parent=<trace>/<span>):
//
//	charge [22ca1008] trace=a51f03c9e2b47d10 duration_s=0.4 powered=5
//	inventory [45b23f1a] trace=7741ab0c55e9d2f8 max_rounds=1
//	  round [fe3ddb2a] q=2 slots=4
//	receipt [8d02c511] remote_parent=7741ab0c55e9d2f8/45b23f1a type=status
//
// Unfinished spans are marked so a truncated trace is visible as such.
func (t *Tracer) Tree() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	for _, sp := range t.roots {
		writeSpan(&b, sp, 0)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s [%08x]", s.name, s.id)
	if depth == 0 {
		if s.remote != nil {
			fmt.Fprintf(b, " remote_parent=%016x/%08x", s.remote.TraceID, s.remote.SpanID)
		} else {
			fmt.Fprintf(b, " trace=%016x", s.trace)
		}
	}
	for _, a := range s.attrs {
		fmt.Fprintf(b, " %s=%s", a.key, a.val)
	}
	if !s.ended {
		b.WriteString(" UNFINISHED")
	}
	b.WriteByte('\n')
	for _, kid := range s.kids {
		writeSpan(b, kid, depth+1)
	}
}
