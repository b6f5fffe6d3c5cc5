package main

import (
	"testing"

	"ecocapsule/internal/fleet"
)

// TestPublisherDeliversEveryStatus: every survey published arrives at the
// subscriber as the status broadcast, and close waits for the receiver.
func TestPublisherDeliversEveryStatus(t *testing.T) {
	p, err := newPublisher(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rep := fleet.SHMReport{Expected: 5000, Reporting: 5000 - i, Degraded: i > 0}
		for h := 0; h < i; h++ {
			rep.Missing = append(rep.Missing, uint16(1+h*7))
		}
		if body := p.publish(i, rep, newRecorder()); len(body) == 0 {
			t.Fatalf("survey %d: empty status frame", i)
		}
	}
	res := newResult()
	p.check(res)
	p.close()
	if len(res.problems) > 0 {
		t.Fatalf("publish check failed: %v", res.problems)
	}
	if p.received != 50 {
		t.Errorf("%d statuses received, want 50", p.received)
	}
}

// TestSameStatus: a status that differs in any carried field is not the
// one broadcast.
func TestSameStatus(t *testing.T) {
	rep := fleet.SHMReport{Expected: 10, Reporting: 8, Degraded: true, Missing: []uint16{3, 7}}
	want := status(4, rep)
	if !sameStatus(want, status(4, rep)) {
		t.Fatal("a status differs from itself")
	}
	other := []fleet.SHMReport{
		{Expected: 11, Reporting: 8, Degraded: true, Missing: []uint16{3, 7}},
		{Expected: 10, Reporting: 9, Degraded: true, Missing: []uint16{3, 7}},
		{Expected: 10, Reporting: 8, Degraded: false, Missing: []uint16{3, 7}},
		{Expected: 10, Reporting: 8, Degraded: true, Missing: []uint16{3, 8}},
		{Expected: 10, Reporting: 8, Degraded: true, Missing: []uint16{3}},
	}
	for i, rep := range other {
		if sameStatus(want, status(4, rep)) {
			t.Errorf("case %d: %+v taken for %+v", i, status(4, rep), want)
		}
	}
	if sameStatus(want, status(5, rep)) {
		t.Error("statuses of different surveys taken for one")
	}
}
