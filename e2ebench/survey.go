package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// city_survey and faulted_survey: a closed loop of fleet surveys on one
// 5,000-capsule city segment. The clean segment runs the sharded parallel
// path; an installed fault injector forces the serial schedule, with
// retries, reroutes and flight-recorder dumps beside the reads.

const (
	segmentCapsules = 5000
	segmentShards   = 8
	surveyCharge    = 0.4 // s of charging per survey
	surveySetups    = 5
	// decomposeEvery spaces the decomposed serial passes of a traced run.
	decomposeEvery = 4
	// linkProbes is the fixed sample of capsule → station links timed for
	// channel.new_us and geometry.impulse_response_us.
	linkProbes = 64
	// setupReplays is how many times a traced run replays the set-up.
	setupReplays = 5
)

// surveyBounds: the survey and the publish calls are spans, so only loop
// bookkeeping is uncovered. The spans cost nothing next to tens of
// milliseconds, but the traced and untraced means differ by the garbage
// the decomposed passes leave to whichever survey follows them.
var surveyBounds = ledgerBounds{uncovered: 0.02, gap: 0.2}

// Layout of fleet.NewCityFleet's segment: capsule i (handle 1+i) sits at
// x = 0.5 + i·pitch on the wall's mid-height, 0.1 m deep; stations sit
// every 4.5 m from x = 0.1 m on the surface.
const (
	cityPitch         = 0.05 // m
	cityStationPitch  = 4.5  // m
	cityVoltage       = 200  // V
	cityWallHeight    = 3.0  // m
	cityWallThickness = 0.20 // m
)

// strainTolerance applies the reader tests' 6σ-on-a-difference rule to the
// strain gauge's 0.5 µε noise.
const strainTolerance = 4.25 * units.UE

type segment struct {
	f       *fleet.Fleet
	in      *faultinject.Injector
	handles []uint16
}

// faultPlan is the faulted workload's regime: frame loss, corruption,
// brown-outs and one dead station, all drawn from the workload seed.
func faultPlan(seed int64, stations int) faultinject.Plan {
	return faultinject.Plan{
		Seed:             seed,
		FrameLossProb:    0.08,
		FrameCorruptProb: 0.03,
		BrownoutProb:     0.003,
		DeadStations:     []int{1 + int(uint64(seed)%uint64(stations-2))},
	}
}

// buildSegment is the workload's set-up: build the segment, install the
// ground truth, warm it with one survey and, when faulted, install the
// injector. rec, when set, times each step.
func buildSegment(seed int64, faulted bool, rec *recorder) (*segment, error) {
	var s segment
	var err error
	rec.do("fleet.build", func() { s.f, err = fleet.NewCityFleet(segmentCapsules, segmentShards, seed) })
	if err != nil {
		return nil, err
	}
	s.f.SetEnvironment(fleet.CityEnvironment)
	var rep fleet.SHMReport
	rec.do("fleet.warmup_survey", func() { rep = s.f.Survey(surveyCharge) })
	if rep.Reporting != rep.Expected || rep.Degraded {
		return nil, fmt.Errorf("survey warm-up: %d/%d reporting", rep.Reporting, rep.Expected)
	}
	for _, row := range rep.Rows {
		s.handles = append(s.handles, row.Handle)
	}
	if faulted {
		rec.do("faultinject.new", func() { s.in, err = faultinject.New(faultPlan(seed, s.f.Stations())) })
		if err != nil {
			return nil, err
		}
		rec.do("fleet.apply_injector", func() { s.f.ApplyInjector(s.in) })
	}
	return &s, nil
}

// scorer checks surveys and counts their good readings: capsules
// reporting values that match the ground truth.
type scorer struct {
	faulted                bool
	good, expected, silent int
}

// check verifies one survey: every capsule accounted for as reporting,
// missing or orphaned; on the clean segment, every capsule reporting; and
// every reading within sensor noise of CityEnvironment. Under the fault
// plan a reading off the truth is a silent error rather than a wrong
// output: the plan flips 1–4 scattered bits per corrupted frame, and a few
// 4-bit patterns pass CRC-16. It is never a good reading, so it lowers
// success_ratio, and fleet.silent_errors counts it; the survey itself
// completed, so it is not a failed operation. check returns the survey's
// good readings.
func (sc *scorer) check(res *result, rep fleet.SHMReport) int {
	res.attempted++
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		res.fail(format, args...)
	}
	if rep.Expected != segmentCapsules || len(rep.Rows) != rep.Expected {
		bad("survey: %d rows for %d expected capsules", len(rep.Rows), rep.Expected)
	}
	if rep.Reporting+len(rep.Missing)+len(rep.Orphans) != rep.Expected {
		bad("survey: %d reporting + %d missing + %d orphaned ≠ %d expected",
			rep.Reporting, len(rep.Missing), len(rep.Orphans), rep.Expected)
	}
	if !sc.faulted && (rep.Reporting != rep.Expected || rep.Degraded) {
		bad("clean survey: %d/%d capsules reporting", rep.Reporting, rep.Expected)
	}
	good := 0
	for _, row := range rep.Rows {
		if row.Status != "ok" {
			continue
		}
		x := 0.5 + float64(row.Handle-1)*cityPitch
		truth := fleet.CityEnvironment(geometry.Vec3{X: x, Y: cityWallHeight / 2, Z: 0.1})
		if math.Abs(row.TemperatureC-truth.TemperatureC) <= thTolerance[0] &&
			math.Abs(row.RelativeHumidity-truth.RelativeHumidity) <= thTolerance[1] &&
			math.Abs(row.StrainX-truth.StrainX) <= strainTolerance &&
			math.Abs(row.StrainY-truth.StrainY) <= strainTolerance {
			good++
			continue
		}
		wrong := fmt.Sprintf("capsule %#04x read T=%g RH=%g strain=(%g,%g), truth T=%g RH=%g strain=(%g,%g)",
			row.Handle, row.TemperatureC, row.RelativeHumidity, row.StrainX, row.StrainY,
			truth.TemperatureC, truth.RelativeHumidity, truth.StrainX, truth.StrainY)
		if !sc.faulted {
			bad("survey: %s", wrong)
			continue
		}
		sc.silent++
		if sc.silent <= 3 {
			res.note("silent error: %s", wrong)
		}
	}
	if !ok {
		res.failed++
	}
	sc.good += good
	sc.expected += rep.Expected
	return good
}

func runSurvey(seed int64, seconds float64, traced, faulted bool) (*result, error) {
	res := newResult()
	var setupRec *recorder
	if traced {
		setupRec = newRecorder()
	}
	seg, setups, err := setupRepeats(surveySetups, func() (*segment, error) {
		return buildSegment(seed, faulted, setupRec)
	}, func(*segment) {})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("live_heap_mb", liveHeapMB(), 1)

	// The first survey after set-up gives the exact fault counts: the
	// faulted schedule is serial, so they repeat for a fixed seed.
	var inj0 faultinject.Stats
	if seg.in != nil {
		inj0 = seg.in.Stats()
	}
	_, _, dumps0 := telemetry.Flight().LastDump()
	first := seg.f.Survey(surveyCharge)
	_, _, dumps1 := telemetry.Flight().LastDump()
	var inj faultinject.Stats
	if seg.in != nil {
		inj = seg.in.Stats()
	}
	sc := scorer{faulted: faulted}
	sc.check(res, first)

	pub, err := newPublisher(seed)
	if err != nil {
		return nil, err
	}
	defer pub.close()
	var surveys, good, tracedSurveys []float64
	rec := newRecorder()
	probe := newRecorder()
	var cpuTime, tracedWall time.Duration
	var allocs uint64
	var serialPasses, charges []float64
	published, frameBytes := 0, 0
	ticks := []cpuTicks{readTicks()}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		rep := seg.f.Survey(surveyCharge)
		pub.publish(published, rep, nil)
		d := time.Since(t0)
		ticks = append(ticks, readTicks())
		published++
		surveys = append(surveys, ms(d))
		good = append(good, float64(sc.check(res, rep)))
		if !traced {
			continue
		}
		c0 := processCPU()
		a0 := heapAllocBytes()
		var body []byte
		d = rec.op(func() {
			rec.do("fleet.survey", func() { rep = seg.f.Survey(surveyCharge) })
			body = pub.publish(published, rep, rec)
		})
		allocs += heapAllocBytes() - a0
		cpuTime += processCPU() - c0
		published++
		frameBytes += len(body)
		probe.do("shmwire.decode", func() {
			if _, err := shmwire.DecodeStatus(body); err != nil {
				res.fail("status frame: %v", err)
			}
		})
		tracedWall += d
		tracedSurveys = append(tracedSurveys, ms(d))
		sc.check(res, rep)
		if i%decomposeEvery == 0 {
			c, r := decomposedPass(probe, seg)
			charges = append(charges, c)
			serialPasses = append(serialPasses, r)
		}
	}
	pub.check(res)
	if !traced {
		if err := setTiming(res, "survey", surveys, good, ticks); err != nil {
			return nil, err
		}
		res.set("success_ratio", float64(sc.good)/float64(sc.expected), res.attempted)
		return res, nil
	}

	n := len(tracedSurveys)
	res.set("fleet.build_s", median(spanDurations(setupRec, "fleet.build"))/1e3, surveySetups)
	res.set("fleet.warmup_survey_s", median(spanDurations(setupRec, "fleet.warmup_survey"))/1e3, surveySetups)
	// The set-up replay is a ledger of its own: its layers' self times are
	// per replay.
	setupLedger := newRecorder()
	for i := 0; i < setupReplays; i++ {
		setupLedger.op(func() { err = replaySetup(setupLedger, seg, seed, faulted) })
		if err != nil {
			return nil, err
		}
	}
	res.set("reader.range_sweep_s", median(spanDurations(setupLedger, "reader.range_sweep"))/1e3, setupReplays)
	res.set("deploy.assign_cells_ms", median(spanDurations(setupLedger, "deploy.assign_cells")), setupReplays)
	sl := buildLedger(setupLedger)
	res.set("channel.new_us", median(spanDurations(setupLedger, "channel.new"))*1e3, sl.calls["channel.new"])
	res.set("geometry.impulse_response_us", median(spanDurations(setupLedger, "geometry.impulse_response"))*1e3,
		sl.calls["geometry.impulse_response"])

	res.set("fleet.charge_ms", median(charges), len(charges))
	pl := buildLedger(probe)
	res.set("fleet.read_us", pl.perCall("fleet.read", time.Microsecond), pl.calls["fleet.read"])
	res.set("fleet.reads_serial_ms", median(serialPasses), len(serialPasses))
	res.set("conc.speedup", (median(charges)+median(serialPasses))/median(tracedSurveys), n)
	res.set("fleet.survey_cpu_util", cpuTime.Seconds()/(tracedWall.Seconds()*float64(runtime.GOMAXPROCS(0))), n)
	res.set("fleet.survey_alloc_mb", float64(allocs)/(1<<20)/float64(n), n)
	res.set("fleet.stations", float64(seg.f.Stations()), 1)
	res.set("fleet.shards", float64(seg.f.Shards()), 1)
	l := buildLedger(rec)
	res.set("shmwire.encode_us", l.perCall("shmwire.encode", time.Microsecond), l.calls["shmwire.encode"])
	res.set("shmwire.broadcast_us", l.perCall("shmwire.broadcast", time.Microsecond), l.calls["shmwire.broadcast"])
	res.set("shmwire.frame_bytes", float64(frameBytes)/float64(n), n)
	res.set("shmwire.decode_us", pl.perCall("shmwire.decode", time.Microsecond), pl.calls["shmwire.decode"])

	res.set("reader.retries", float64(first.Retries), 1)
	res.set("reader.corrupted_replies", float64(first.CorruptedReplies), 1)
	res.set("fleet.rerouted_reads", float64(first.ReroutedReads), 1)
	res.set("fleet.missing", float64(len(first.Missing)), 1)
	res.set("fleet.orphans", float64(len(first.Orphans)), 1)
	kinds := map[string]int{
		"faultinject.downlink_dropped":   inj.DownlinkDropped - inj0.DownlinkDropped,
		"faultinject.downlink_corrupted": inj.DownlinkCorrupted - inj0.DownlinkCorrupted,
		"faultinject.uplink_dropped":     inj.UplinkDropped - inj0.UplinkDropped,
		"faultinject.uplink_corrupted":   inj.UplinkCorrupted - inj0.UplinkCorrupted,
		"faultinject.brownouts":          inj.Brownouts - inj0.Brownouts,
		"faultinject.fades":              inj.Fades - inj0.Fades,
	}
	total := 0
	for k, v := range kinds {
		res.set(k, float64(v), 1)
		total += v
	}
	res.set("faultinject.injected", float64(total), 1)
	res.set("telemetry.flight_dumps", float64(dumps1-dumps0), 1)
	res.set("fleet.silent_errors", float64(sc.silent), res.attempted)
	res.note("first survey: %d/%d reporting, %d missing, %d orphans, %d retries, %d corrupted, %d rerouted, %d faults injected",
		first.Reporting, first.Expected, len(first.Missing), len(first.Orphans), first.Retries,
		first.CorruptedReplies, first.ReroutedReads, total)

	ledgerMetrics(res, l, surveys, tracedSurveys, median(tracedSurveys)/median(surveys)-1, surveyBounds)
	res.note("set-up replay ledger over %d replays, %.3f ms each (%.2f%% uncovered):", setupReplays,
		ms(sl.total)/setupReplays, 100*float64(sl.uncovered)/float64(sl.total))
	layerSelf(res, sl, setupReplays)
	return res, nil
}

// spanDurations lists the durations, in ms, of the spans named name.
func spanDurations(r *recorder, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, ms(s.iv.hi-s.iv.lo))
		}
	}
	return out
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// decomposedPass replays one survey's work serially through the public
// calls — one charge, then both sensor reads of every capsule in the
// survey's handle order — and returns the charge and read-pass times, ms.
func decomposedPass(r *recorder, seg *segment) (charge, reads float64) {
	t0 := r.now()
	r.do("fleet.charge", func() { seg.f.Charge(surveyCharge) })
	t1 := r.now()
	for _, h := range seg.handles {
		r.do("fleet.read", func() { seg.f.ReadSensorVia(h, sensors.TypeTempHumidity) })
		r.do("fleet.read", func() { seg.f.ReadSensorVia(h, sensors.TypeStrain) })
	}
	return ms(t1 - t0), ms(r.now() - t1)
}

// cityWall is the segment's wall as fleet.NewCityFleet sizes it.
func cityWall() *geometry.Structure {
	return &geometry.Structure{
		Name: "city-wall", Shape: geometry.Box, Material: material.NC(),
		Length: 1 + segmentCapsules*cityPitch, Height: cityWallHeight, Thickness: cityWallThickness,
		SurfaceLossDB: 0.3,
	}
}

// replaySetup replays the set-up's steps in isolation, through the public
// calls fleet.NewCityFleet makes: the station range sweep, the coverage
// cell grid and its station assignment, channel.New and the image-source
// expansion over a fixed sample of capsule → best-station links at the
// segment's MaxOrder, and, when faulted, the fault injector.
func replaySetup(r *recorder, seg *segment, seed int64, faulted bool) error {
	wall := cityWall()
	var rng float64
	var err error
	r.do("reader.range_sweep", func() {
		rng, err = reader.MaxPowerUpRange(reader.Config{
			Structure: wall, TXPosition: geometry.Vec3{X: 0.1, Y: cityWallHeight / 2},
		}, cityVoltage)
	})
	if err != nil {
		return err
	}
	var stations []deploy.Station
	for x := 0.1; x < wall.Length; x += cityStationPitch {
		stations = append(stations, deploy.Station{Position: geometry.Vec3{X: x, Y: cityWallHeight / 2}, RangeM: rng})
	}
	var grid *geometry.CellGrid
	r.do("geometry.cell_grid", func() { grid, err = geometry.NewCellGrid(wall, 2*len(stations)) })
	if err != nil {
		return err
	}
	r.do("deploy.assign_cells", func() { _, err = deploy.AssignCells(wall, grid, stations) })
	if err != nil {
		return err
	}
	prism := material.PLA()
	angle := units.Deg2Rad(60)
	p, sh := physics.Boundary{From: prism, To: wall.Material}.ModeAmplitudes(angle)
	couple := math.Sqrt(physics.TransmissionEnergyFraction(prism, wall.Material))
	for k := 0; k < linkProbes; k++ {
		h := seg.handles[k*len(seg.handles)/linkProbes]
		st := seg.f.BestStation(h)
		if st < 0 {
			continue
		}
		src := geometry.Vec3{X: 0.1 + float64(st)*cityStationPitch, Y: cityWallHeight / 2}
		dst := geometry.Vec3{X: 0.5 + float64(h-1)*cityPitch, Y: cityWallHeight / 2, Z: 0.1}
		r.do("channel.new", func() {
			_, err = channel.New(channel.Config{
				Structure: wall, Source: src, Destination: dst,
				CarrierFrequency: 230 * units.KHz, PrismAngle: angle, MaxOrder: 1,
			})
		})
		if err != nil {
			return err
		}
		r.do("geometry.impulse_response", func() {
			wall.ImpulseResponse(src, dst, geometry.ImpulseConfig{
				Frequency: 230 * units.KHz, MaxOrder: 1, MinGain: 1e-8,
				PFraction: p * couple, SFraction: sh * couple,
			})
		})
	}
	if faulted {
		r.do("faultinject.new", func() { _, err = faultinject.New(faultPlan(seed, seg.f.Stations())) })
	}
	return err
}
