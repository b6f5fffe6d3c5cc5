package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// acoustic_round: a closed loop, one client, of waveform-level TDMA rounds
// on the common wall. Three capsules sit at x = 0.6/0.8/1.8 m, a set that
// decodes every read: the wall has standing-wave fades at ~0.2 m pitch, a
// round's slots share one AGC scale, and the payload's bits vary with the
// readings, so what decodes depends on the whole set. In rounds of
// 0.8/1.0/1.2 m the capsule at 1.0 m fails CRC on about 2.5% of its reads,
// in 0.6/0.8/1.2 m the one at 1.2 m on about 0.2%, and in 0.6/0.8/1.0 m
// the one at 1.0 m on about 0.3%; the chosen set read 600 rounds, over six
// seeds' environments, without an error at three times the default
// capture noise.

const (
	acousticSetups = 9
	// slotGuard mirrors the reader's inter-slot margin beyond each link's
	// reverberation tail; the replay lays slots out exactly as the round.
	slotGuard = 8e-3 // s
)

// acousticBounds: the replay's own glue (slot layout, capture sums, AGC
// scaling) stays under 15% of the round, and the replayed round within 20%
// of the real one — a replay that skips or adds work fails the run.
var acousticBounds = ledgerBounds{uncovered: 0.15, gap: 0.2}

// thTolerance is the reader tests' 6σ band for temperature (°C) and
// humidity (%RH) readings against a second sample of the same sensor.
var thTolerance = [2]float64{1.5, 8.5}

type acousticRig struct {
	r       *reader.Reader
	cfg     reader.Config
	nodes   []*node.Node
	handles []uint16
	env     func(geometry.Vec3) sensors.Environment
	// captureLen is the last replayed round's capture length in samples.
	captureLen int
}

// newAcousticRig casts the wall's capsules, charges them and runs one
// warm-up round so link caches and FFT plans are built before timing.
func newAcousticRig(seed int64) (*acousticRig, error) {
	rng := rand.New(rand.NewSource(seed))
	baseT, gradT, rh := 5+30*rng.Float64(), 4*rng.Float64()-2, 35+50*rng.Float64()
	a := &acousticRig{
		cfg: reader.Config{
			Structure:    geometry.CommonWall(),
			TXPosition:   geometry.Vec3{X: 0.1, Y: 10, Z: 0},
			RXPosition:   geometry.Vec3{X: 0.3, Y: 10, Z: 0},
			DriveVoltage: 200,
			Seed:         seed,
		},
		env: func(p geometry.Vec3) sensors.Environment {
			return sensors.Environment{TemperatureC: baseT + gradT*p.X, RelativeHumidity: rh}
		},
	}
	var err error
	if a.r, err = reader.New(a.cfg); err != nil {
		return nil, err
	}
	a.r.SetEnvironment(a.env)
	for i, x := range []float64{0.6, 0.8, 1.8} {
		h := uint16(0x41 + i)
		n := node.New(node.Config{
			Handle:   h,
			Position: geometry.Vec3{X: x, Y: 10, Z: 0.1},
			Seed:     seed<<8 + int64(h),
		})
		if err := a.r.Deploy(n); err != nil {
			return nil, err
		}
		a.nodes = append(a.nodes, n)
		a.handles = append(a.handles, h)
	}
	if up := a.r.Charge(0.3); up != len(a.handles) {
		return nil, fmt.Errorf("acoustic: %d/%d capsules powered up", up, len(a.handles))
	}
	for i, res := range a.r.AcousticReadRound(a.handles, sensors.TypeTempHumidity, reader.DefaultAcousticConfig()) {
		if err := a.check(i, res); err != nil {
			return nil, fmt.Errorf("acoustic warm-up: %w", err)
		}
	}
	return a, nil
}

// check compares slot i of a round against the installed ground truth.
// A decode error returns errDecode; a CRC-valid read with wrong values
// returns any other error.
func (a *acousticRig) check(i int, res reader.AcousticReadResult) error {
	if res.Err != nil {
		return fmt.Errorf("%w: %v", errDecode, res.Err)
	}
	truth := a.env(a.nodes[i].Position())
	want := []float64{truth.TemperatureC, truth.RelativeHumidity}
	if res.Handle != a.handles[i] || len(res.Values) != 2 {
		return fmt.Errorf("slot %d: handle %#04x values %v", i, res.Handle, res.Values)
	}
	for j := range want {
		if math.Abs(res.Values[j]-want[j]) > thTolerance[j] {
			return fmt.Errorf("slot %d (%#04x): value %d = %g, ground truth %g",
				i, res.Handle, j, res.Values[j], want[j])
		}
	}
	return nil
}

var errDecode = errors.New("decode failed")

func runAcoustic(seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult()
	a, setups, err := setupRepeats(acousticSetups, func() (*acousticRig, error) { return newAcousticRig(seed) },
		func(*acousticRig) {})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("live_heap_mb", liveHeapMB(), 1)

	cfg := reader.DefaultAcousticConfig()
	var rounds, good, replays []float64
	ok := 0
	score := func(out []reader.AcousticReadResult) {
		for i, o := range out {
			res.attempted++
			switch err := a.check(i, o); {
			case err == nil:
				ok++
			case errors.Is(err, errDecode):
				res.failed++
				if res.failed <= 3 {
					res.note("decode failure, slot %d: %v", i, err)
				}
			default:
				res.failed++
				res.fail("acoustic read: %v", err)
			}
		}
	}
	rec := newRecorder()
	ticks := []cpuTicks{readTicks()}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		out := a.r.AcousticReadRound(a.handles, sensors.TypeTempHumidity, cfg)
		rounds = append(rounds, ms(time.Since(t0)))
		ticks = append(ticks, readTicks())
		ok0 := ok
		score(out)
		good = append(good, float64(ok-ok0))
		if traced {
			var out []reader.AcousticReadResult
			d := rec.op(func() { out = a.replay(rec, cfg) })
			replays = append(replays, ms(d))
			score(out)
		}
	}
	if !traced {
		if err := setTiming(res, "round", rounds, good, ticks); err != nil {
			return nil, err
		}
		res.set("success_ratio", float64(ok)/float64(res.attempted), res.attempted)
		return res, nil
	}

	l := buildLedger(rec)
	n := len(replays)
	res.set("channel.transmit_ms", l.perOp("channel.transmit", n, time.Millisecond), n)
	res.set("channel.transmit_alloc_kb", float64(l.allocs["channel.transmit"])/1024/float64(n), n)
	res.set("phy.demod_slots_ms", l.perOp("phy.demod_slots", n, time.Millisecond), n)
	res.set("phy.demod_slots_alloc_kb", float64(l.allocs["phy.demod_slots"])/1024/float64(n), n)
	res.set("dsp.noise_ms", l.perOp("dsp.noise", n, time.Millisecond), n)
	res.set("waveform.carrier_ms", l.perOp("waveform.carrier", n, time.Millisecond), n)
	res.set("phy.modulate_ms", l.perOp("phy.modulate", n, time.Millisecond), n)
	res.set("node.downlink_us", l.perCall("node.downlink", time.Microsecond), l.calls["node.downlink"])
	res.set("protocol.parse_us", l.perCall("protocol.parse", time.Microsecond), l.calls["protocol.parse"])
	res.set("reader.round_other_ms", ms(l.uncovered)/float64(n), n)
	res.set("reader.capture_samples", float64(a.captureLen), 1)
	st := a.r.LinkCache().Stats()
	res.set("channel.cache_hits", float64(st.Hits), 1)
	res.set("channel.cache_misses", float64(st.Misses), 1)
	// The replay stands for the real round, so the ledger gap and the
	// tracing overhead are the replayed round against the real one.
	ledgerMetrics(res, l, rounds, replays, median(replays)/median(rounds)-1, acousticBounds)
	return res, nil
}

// replay performs one round's steps — the same public calls on the same
// inputs as reader.(*Reader).AcousticReadRound — with a span around each,
// fetching channels from the reader's own link cache.
func (a *acousticRig) replay(rec *recorder, cfg reader.AcousticConfig) []reader.AcousticReadResult {
	out := make([]reader.AcousticReadResult, len(a.handles))
	payloads := make([][]byte, len(a.handles))
	bits := make([][]byte, len(a.handles))
	chans := make([]*channel.Channel, len(a.handles))
	for i, n := range a.nodes {
		h := a.handles[i]
		out[i].Handle = h
		var up *protocol.UplinkFrame
		var err error
		rec.do("node.downlink", func() {
			up, err = n.HandleDownlink(protocol.Packet{
				Cmd: protocol.CmdReadSensor, Target: h, Payload: []byte{byte(sensors.TypeTempHumidity)},
			}, a.env(n.Position()))
		})
		if err == nil && up == nil {
			err = errors.New("capsule stayed silent")
		}
		if err != nil {
			out[i].Err = err
			continue
		}
		rec.do("protocol.frame_bits", func() { payloads[i] = up.Bits() })
		rec.do("phy.prepend_pilot", func() { bits[i] = phy.PrependPilot(payloads[i]) })
		rec.do("channel.cache_lookup", func() {
			chans[i], err = a.r.LinkCache().Channel(channel.Config{
				Structure:        a.cfg.Structure,
				Source:           a.cfg.TXPosition,
				Destination:      n.Position(),
				CarrierFrequency: 230 * units.KHz,
				PrismAngle:       units.Deg2Rad(60),
				Seed:             a.cfg.Seed + int64(h),
			})
		})
		if err != nil {
			out[i].Err = err
		}
	}

	syn := waveform.NewSynth(cfg.SampleRate)
	btx := phy.NewBackscatterTX(cfg.SampleRate)
	btx.Bitrate = cfg.UplinkBitrate
	lead := syn.Samples(1e-3)
	var slots []phy.Slot
	var slotOf []int
	total := 0
	for i := range a.handles {
		if out[i].Err != nil {
			continue
		}
		tail := 0.0
		if arr := chans[i].Arrivals(); len(arr) > 0 {
			tail = arr[len(arr)-1].Delay
		}
		frameDur := float64(len(bits[i])) / btx.Bitrate
		s := phy.Slot{Start: total, Len: syn.Samples(frameDur + tail + slotGuard), NBits: len(payloads[i])}
		total += s.Len
		slots = append(slots, s)
		slotOf = append(slotOf, i)
	}
	a.captureLen = total
	var incident []float64
	rec.do("waveform.carrier", func() {
		incident = syn.CBW(230*units.KHz, 1.0, float64(total)/cfg.SampleRate+2e-3)
	})
	capture := make([]float64, total)
	if cfg.LeakageGain > 0 {
		for i := range capture {
			capture[i] = cfg.LeakageGain * incident[i]
		}
	}
	seed := int64(7)
	for s, i := range slotOf {
		seed = seed*31 + int64(a.handles[i])
		var bs, y []float64
		var err error
		rec.do("phy.modulate", func() { bs, err = btx.Modulate(bits[i], incident[slots[s].Start+lead:]) })
		if err != nil {
			out[i].Err = err
			continue
		}
		rec.doAlloc("channel.transmit", func() { y = chans[i].Transmit(bs) })
		base := slots[s].Start + lead
		for k, v := range y {
			if base+k >= len(capture) {
				break
			}
			capture[base+k] += v
		}
	}
	var peak float64
	rec.do("dsp.max_abs", func() { peak = dsp.MaxAbs(capture) })
	if peak > 0 {
		scale := 1.0 / peak
		for k := range capture {
			capture[k] *= scale
		}
	}
	if cfg.NoiseSigma > 0 {
		rec.do("dsp.noise", func() { dsp.NewNoiseSource(seed).AddAWGN(capture, cfg.NoiseSigma) })
	}
	var decoded []phy.SlotBits
	rec.doAlloc("phy.demod_slots", func() {
		rrx := phy.NewReaderRX(cfg.SampleRate)
		rrx.Bitrate = cfg.UplinkBitrate
		decoded = rrx.DemodulateSlots(capture, slots)
	})
	for s, i := range slotOf {
		if out[i].Err != nil {
			continue
		}
		if decoded[s].Err != nil {
			out[i].Err = decoded[s].Err
			continue
		}
		rec.do("protocol.parse", func() {
			var up protocol.UplinkFrame
			up, out[i].Err = protocol.UnmarshalUplink(coding.BitsToBytes(decoded[s].Bits))
			if out[i].Err == nil && up.Handle != a.handles[i] {
				out[i].Err = fmt.Errorf("frame from %#04x", up.Handle)
			}
			if out[i].Err == nil {
				out[i].Values, out[i].Err = sensors.Decode(sensors.SensorType(up.Kind), up.Data)
			}
		})
	}
	return out
}
