// Package faultinject is the deterministic fault-injection layer of the
// EcoCapsule stack. A seeded Plan declares the failure regime — frame loss
// and bit corruption on the acoustic link, capsule brown-outs and mutes,
// dead reader stations, stuck sensors, and dropped monitoring connections —
// and an Injector turns the plan into reproducible per-event decisions.
//
// The consumers (reader, fleet, shmwire) each define a small interface at
// their point of use; the Injector implements all of them, so a single
// plan drives the whole pipeline without forking any hot path.
//
// Every random decision is keyed rather than streamed: the n-th draw made
// for a capsule is a pure function of (plan seed, capsule handle, n). A
// capsule's frames are only ever exchanged by one goroutine at a time, so
// its draws happen in protocol order whatever else runs concurrently, and
// the same plan reproduces the same failures byte for byte on any schedule
// — a sharded survey fanned out over every core included.
package faultinject

//ecolint:deterministic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ecocapsule/internal/prng"
	"ecocapsule/internal/telemetry"
)

// Plan is a declarative, seeded fault scenario. The zero value injects
// nothing; probabilities are in [0, 1].
type Plan struct {
	// Seed drives every random decision the injector makes.
	Seed int64

	// FrameLossProb is the probability that a whole frame (downlink or
	// uplink) is lost in transit — the BER-waterfall regime of Fig. 15
	// where sync is never acquired.
	FrameLossProb float64
	// FrameCorruptProb is the probability that a surviving frame takes a
	// short burst of bit flips (1–4 bits), the CRC-detectable case.
	FrameCorruptProb float64
	// BitFlipBER applies independent per-bit flips at this rate on top of
	// the burst model, for sweeping the waterfall edge directly.
	BitFlipBER float64

	// DeadStations lists fleet station indices that are offline for the
	// whole scenario (a reader fell off the wall).
	DeadStations []int

	// MutedCapsules lists capsule handles whose uplink never arrives (a
	// failed backscatter switch); the capsule still harvests and decodes.
	MutedCapsules []uint16
	// BrownoutProb is the per-downlink-delivery probability that a capsule
	// browns out mid-inventory and drops back to dormant.
	BrownoutProb float64

	// StuckSensors lists capsule handles whose sensors freeze at their
	// first sampled value (a debonded gauge reporting forever-stale data).
	StuckSensors []uint16

	// ConnDropAfterFrames makes a wrapped monitoring connection fail after
	// this many successful reads (0 = never) — the shmwire reconnect case.
	ConnDropAfterFrames int
}

// Validate checks the plan's probabilities and counts.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"FrameLossProb", p.FrameLossProb},
		{"FrameCorruptProb", p.FrameCorruptProb},
		{"BitFlipBER", p.BitFlipBER},
		{"BrownoutProb", p.BrownoutProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faultinject: %s = %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.ConnDropAfterFrames < 0 {
		return fmt.Errorf("faultinject: ConnDropAfterFrames = %d negative", p.ConnDropAfterFrames)
	}
	for _, s := range p.DeadStations {
		if s < 0 {
			return fmt.Errorf("faultinject: dead station index %d negative", s)
		}
	}
	return nil
}

// Stats counts what the injector actually did — tests assert on these and
// reports annotate degradation with them. Fades is always zero: no layer
// injects acoustic fades; the field stays for callers that report it.
type Stats struct {
	DownlinkDropped   int
	DownlinkCorrupted int
	UplinkDropped     int
	UplinkCorrupted   int
	Brownouts         int
	Fades             int
}

// Injector executes a Plan deterministically. All methods are safe for
// concurrent use, and draws for different capsules may interleave in any
// order without changing any outcome or Stats.
type Injector struct {
	plan Plan
	// dead, muted and stuck are fixed by New and only read afterwards.
	dead  map[int]bool
	muted map[uint16]bool
	stuck map[uint16]bool
	// draws[h>>8][h&0xff] counts the draws made so far for capsule h: the
	// index of its next keyed draw. Pages are allocated on first use, so a
	// small plan pays for the handles it touches, and a draw takes no lock
	// shared with other capsules.
	draws [256]atomic.Pointer[drawPage]

	mu sync.Mutex
	//ecolint:guardedby mu
	stats Stats
}

// drawPage holds the draw counters of 256 consecutive capsule handles.
type drawPage [256]atomic.Uint64

// New validates the plan and builds its injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:  plan,
		dead:  make(map[int]bool, len(plan.DeadStations)),
		muted: make(map[uint16]bool, len(plan.MutedCapsules)),
		stuck: make(map[uint16]bool, len(plan.StuckSensors)),
	}
	for _, s := range plan.DeadStations {
		in.dead[s] = true
	}
	for _, h := range plan.MutedCapsules {
		in.muted[h] = true
	}
	for _, h := range plan.StuckSensors {
		in.stuck[h] = true
	}
	return in, nil
}

// MustNew is New for literal plans in tests and examples; it panics on an
// invalid plan.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns a copy of the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// stream is one capsule's sequence of keyed draws.
type stream struct {
	seed, handle uint64
	n            *atomic.Uint64
}

// stream returns the capsule's draw sequence, positioned at its next draw.
func (in *Injector) stream(handle uint16) stream {
	slot := &in.draws[handle>>8]
	page := slot.Load()
	if page == nil {
		slot.CompareAndSwap(nil, new(drawPage))
		page = slot.Load()
	}
	return stream{seed: uint64(in.plan.Seed), handle: uint64(handle), n: &page[handle&0xff]}
}

// next returns the capsule's next draw: a pure function of (plan seed,
// handle, the handle's draw index).
func (s stream) next() uint64 { return prng.Keyed(s.seed, s.handle, s.n.Add(1)-1) }

// uniform returns the capsule's next draw as a uniform float in [0, 1).
func (s stream) uniform() float64 { return float64(s.next()>>11) * 0x1p-53 }

// inflict counts one injected fault of the given kind and records it on the
// metric and the flight recorder.
func (in *Injector) inflict(kind, detail string) {
	in.mu.Lock()
	switch kind {
	case kindDownlinkDropped:
		in.stats.DownlinkDropped++
	case kindDownlinkCorrupted:
		in.stats.DownlinkCorrupted++
	case kindUplinkDropped:
		in.stats.UplinkDropped++
	case kindUplinkCorrupted:
		in.stats.UplinkCorrupted++
	case kindBrownout:
		in.stats.Brownouts++
	}
	in.mu.Unlock()
	mInjected.With(kind).Inc()
	telemetry.RecordFlight("faultinject", kind, detail)
}

// Downlink implements the reader's frame-fault hook for reader→capsule
// frames: it returns the (possibly corrupted) frame and whether it arrived
// at all. The returned slice is a copy; the input is never mutated.
func (in *Injector) Downlink(handle uint16, frame []byte) ([]byte, bool) {
	out, delivered, touched := in.frame(in.stream(handle), frame)
	if !delivered {
		in.inflict(kindDownlinkDropped, fmt.Sprintf("frame to capsule 0x%04x lost in the concrete", handle))
	} else if touched {
		in.inflict(kindDownlinkCorrupted, fmt.Sprintf("frame to capsule 0x%04x took bit flips", handle))
	}
	return out, delivered
}

// Uplink implements the reader's frame-fault hook for capsule→reader
// frames. A muted capsule's uplink is always dropped.
func (in *Injector) Uplink(handle uint16, frame []byte) ([]byte, bool) {
	if in.muted[handle] {
		in.inflict(kindUplinkDropped, fmt.Sprintf("capsule 0x%04x is muted", handle))
		return nil, false
	}
	out, delivered, touched := in.frame(in.stream(handle), frame)
	if !delivered {
		in.inflict(kindUplinkDropped, fmt.Sprintf("backscatter from capsule 0x%04x never reached the RX", handle))
	} else if touched {
		in.inflict(kindUplinkCorrupted, fmt.Sprintf("backscatter from capsule 0x%04x took bit flips", handle))
	}
	return out, delivered
}

// frame applies loss, burst corruption, and BER to one frame to or from
// the capsule whose draws s yields.
func (in *Injector) frame(s stream, frame []byte) (out []byte, delivered, touched bool) {
	if in.plan.FrameLossProb > 0 && s.uniform() < in.plan.FrameLossProb {
		return nil, false, false
	}
	out = frame
	if in.plan.FrameCorruptProb > 0 && s.uniform() < in.plan.FrameCorruptProb && len(frame) > 0 {
		out = append([]byte(nil), out...)
		flips := 1 + int(s.next()%4)
		for i := 0; i < flips; i++ {
			bit := int(s.next() % uint64(len(out)*8))
			out[bit/8] ^= 1 << uint(7-bit%8)
		}
		touched = true
	}
	if in.plan.BitFlipBER > 0 && len(frame) > 0 {
		copied := touched
		for i := 0; i < len(out)*8; i++ {
			if s.uniform() < in.plan.BitFlipBER {
				if !copied {
					out = append([]byte(nil), out...)
					copied = true
				}
				out[i/8] ^= 1 << uint(7-i%8)
				touched = true
			}
		}
	}
	return out, true, touched
}

// Brownout implements the reader's capsule-fault hook: drawn once per
// downlink delivery, true means the capsule loses power mid-operation.
func (in *Injector) Brownout(handle uint16) bool {
	if in.plan.BrownoutProb <= 0 || in.stream(handle).uniform() >= in.plan.BrownoutProb {
		return false
	}
	in.inflict(kindBrownout, fmt.Sprintf("capsule 0x%04x lost its storage charge mid-operation", handle))
	return true
}

// StationDead implements the fleet's station-fault hook.
func (in *Injector) StationDead(station int) bool { return in.dead[station] }

// SensorStuck reports whether a capsule's sensors are planned to freeze.
func (in *Injector) SensorStuck(handle uint16) bool { return in.stuck[handle] }

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
