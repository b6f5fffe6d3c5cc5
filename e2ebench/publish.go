package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"ecocapsule/internal/fleet"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
)

// Publishing a survey. As cmd/shmserver does after each survey, the survey
// workloads send the report's coverage as a status frame under a telemetry
// span, through one shmwire.Server to one subscriber, which decodes it. A
// survey's publish is a few tens of µs against tens of ms of survey, so
// it is part of the operation timed but shows only in the traced ledger.

// statusEpoch stamps status frame i with simulated hour i.
var statusEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

const drainTimeout = 3 * time.Second

type publisher struct {
	srv    *shmwire.Server
	cl     *shmwire.Client
	tracer *telemetry.Tracer
	wg     sync.WaitGroup

	// mu guards the fields below; the receiver goroutine reads sent and
	// writes the rest.
	mu       sync.Mutex
	sent     []shmwire.Status // what the subscriber must decode, in order
	received int
	wrong    []string
	arrived  chan struct{} // signalled on every receipt
}

// newPublisher starts the server and its subscriber and waits until the
// subscriber is registered.
func newPublisher(seed int64) (*publisher, error) {
	srv, err := shmwire.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.SetLogf(func(string, ...any) {})
	p := &publisher{srv: srv, tracer: telemetry.NewTracer(seed), arrived: make(chan struct{}, 1)}
	if p.cl, err = shmwire.Dial(srv.Addr().String(), "e2ebench"); err != nil {
		srv.Close()
		return nil, err
	}
	for deadline := time.Now().Add(drainTimeout); srv.Subscribers() < 1; {
		if time.Now().After(deadline) {
			p.close()
			return nil, fmt.Errorf("publish: the subscriber never registered")
		}
		runtime.Gosched()
	}
	p.wg.Add(1)
	go p.receive()
	return p, nil
}

// status is the frame cmd/shmserver sends for a survey report.
func status(i int, rep fleet.SHMReport) shmwire.Status {
	return shmwire.Status{
		Timestamp: statusEpoch.Add(time.Duration(i) * time.Hour),
		Expected:  uint16(rep.Expected), Reporting: uint16(rep.Reporting),
		Degraded: rep.Degraded, MissingNodes: rep.Missing,
	}
}

// publish broadcasts survey i's status under a span, as the shmserver
// does, and returns the encoded body. rec, when set, traces each call.
func (p *publisher) publish(i int, rep fleet.SHMReport, rec *recorder) []byte {
	st := status(i, rep)
	var sp *telemetry.Span
	rec.do("telemetry.span_start", func() { sp = p.tracer.Start("status_broadcast").Attr("survey", i) })
	ctx := sp.Context()
	tc := &shmwire.TraceContext{TraceID: ctx.TraceID, SpanID: ctx.SpanID, LogicalTS: uint64(i)}
	var body []byte
	rec.do("shmwire.encode", func() { body = shmwire.EncodeStatus(st) })
	p.mu.Lock()
	p.sent = append(p.sent, st)
	p.mu.Unlock()
	rec.do("shmwire.broadcast", func() { p.srv.BroadcastTraced(shmwire.MsgStatus, body, tc) })
	rec.do("telemetry.span_end", sp.End)
	return body
}

// receive checks every status the subscriber decodes against the one
// broadcast, until the client is closed.
func (p *publisher) receive() {
	defer p.wg.Done()
	for {
		ev, err := p.cl.Next()
		if err != nil || ev.Type == shmwire.MsgBye {
			return
		}
		p.mu.Lock()
		switch {
		case ev.Status == nil:
			p.wrong = append(p.wrong, fmt.Sprintf("a %v frame", ev.Type))
		case p.received >= len(p.sent):
			p.wrong = append(p.wrong, "a status frame nobody sent")
		case !sameStatus(*ev.Status, p.sent[p.received]):
			p.wrong = append(p.wrong, fmt.Sprintf("status %d: decoded %+v, broadcast %+v",
				p.received, *ev.Status, p.sent[p.received]))
		}
		p.received++
		p.mu.Unlock()
		select {
		case p.arrived <- struct{}{}:
		default:
		}
	}
}

func sameStatus(a, b shmwire.Status) bool {
	return a.Timestamp.Equal(b.Timestamp) && a.Expected == b.Expected && a.Reporting == b.Reporting &&
		a.Degraded == b.Degraded && a.Truncated == b.Truncated && slices.Equal(a.MissingNodes, b.MissingNodes)
}

// check waits until every status sent has arrived and reports what was
// wrong or lost.
func (p *publisher) check(res *result) {
	deadline := time.After(drainTimeout)
	for {
		p.mu.Lock()
		received, sent := p.received, len(p.sent)
		p.mu.Unlock()
		if received >= sent {
			break
		}
		select {
		case <-p.arrived:
			continue
		case <-deadline:
		}
		res.fail("publish: %d of %d status frames arrived", received, sent)
		break
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.wrong {
		res.fail("publish: %s", w)
	}
}

func (p *publisher) close() {
	if p.cl != nil {
		p.cl.Close()
	}
	p.srv.Close()
	p.wg.Wait()
}
