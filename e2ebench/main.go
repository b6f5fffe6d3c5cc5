// Command e2ebench is the repository benchmark: three workloads driven
// from outside through the public functions of the internal modules, from
// a waveform-level acoustic round to a city-segment survey published to a
// subscriber.
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics untraced. With
// --trace 1 it runs the same workload with spans around each call into a
// module, alternating traced and untraced operations, and reports the
// per-layer ledger. Human-readable lines come first; the last line of
// standard output is one JSON object. A failed correctness check prints
// the result with "correct": false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric: name, unit and, for end-to-end
// metrics, what it measures on each workload.
type metricDef struct {
	name, unit string
	alias      map[string]string // workload → the metric's name there
}

// endToEnd lists the end-to-end metrics every workload reports. Each is a
// user-visible figure whose meaning is fixed per workload by alias.
var endToEnd = []metricDef{
	{"setup_s", "s", nil},
	{"live_heap_mb", "MB", nil},
	{"latency_ms_p50", "ms", map[string]string{
		"acoustic_round": "round_ms_p50", "city_survey": "survey_ms_p50", "faulted_survey": "survey_ms_p50"}},
	{"latency_ms_p90", "ms", map[string]string{
		"acoustic_round": "round_ms_p90", "city_survey": "survey_ms_p90", "faulted_survey": "survey_ms_p90"}},
	{"throughput_per_s", "1/s", map[string]string{
		"acoustic_round": "reads_per_s", "city_survey": "capsules_per_s", "faulted_survey": "capsules_per_s"}},
	{"success_ratio", "ratio", map[string]string{
		"acoustic_round": "read_ok_ratio", "city_survey": "reporting_ratio", "faulted_survey": "reporting_ratio"}},
}

// layers are the modules the ledger accounts time to.
var layers = []string{"geometry", "channel", "dsp", "waveform", "phy", "protocol",
	"node", "reader", "deploy", "fleet", "conc", "faultinject", "telemetry", "shmwire"}

// perLayer lists the traced metrics every workload reports; a layer or
// counter a workload never reaches reads 0. A layer's self time is per
// traced operation of the ledger that reaches it: per round, per survey
// (fleet, telemetry and shmwire) or per set-up replay (reader, geometry,
// deploy, channel and faultinject on the survey workloads).
var perLayer = func() []metricDef {
	defs := []metricDef{
		// acoustic_round
		{name: "channel.transmit_ms", unit: "ms"},
		{name: "channel.transmit_alloc_kb", unit: "KiB"},
		{name: "phy.demod_slots_ms", unit: "ms"},
		{name: "phy.demod_slots_alloc_kb", unit: "KiB"},
		{name: "dsp.noise_ms", unit: "ms"},
		{name: "waveform.carrier_ms", unit: "ms"},
		{name: "phy.modulate_ms", unit: "ms"},
		{name: "node.downlink_us", unit: "us"},
		{name: "protocol.parse_us", unit: "us"},
		{name: "reader.round_other_ms", unit: "ms"},
		{name: "reader.capture_samples", unit: "count"},
		{name: "channel.cache_hits", unit: "count"},
		{name: "channel.cache_misses", unit: "count"},
		// set-up of the city segment
		{name: "reader.range_sweep_s", unit: "s"},
		{name: "fleet.build_s", unit: "s"},
		{name: "fleet.warmup_survey_s", unit: "s"},
		{name: "channel.new_us", unit: "us"},
		{name: "geometry.impulse_response_us", unit: "us"},
		{name: "deploy.assign_cells_ms", unit: "ms"},
		// surveys
		{name: "fleet.charge_ms", unit: "ms"},
		{name: "fleet.read_us", unit: "us"},
		{name: "fleet.reads_serial_ms", unit: "ms"},
		{name: "conc.speedup", unit: "x"},
		{name: "fleet.survey_cpu_util", unit: "ratio"},
		{name: "fleet.survey_alloc_mb", unit: "MB"},
		{name: "fleet.stations", unit: "count"},
		{name: "fleet.shards", unit: "count"},
		// faulted_survey: exact counts of the first survey after set-up
		{name: "reader.retries", unit: "count"},
		{name: "reader.corrupted_replies", unit: "count"},
		{name: "fleet.rerouted_reads", unit: "count"},
		{name: "fleet.missing", unit: "count"},
		{name: "fleet.orphans", unit: "count"},
		{name: "faultinject.injected", unit: "count"},
		{name: "faultinject.downlink_dropped", unit: "count"},
		{name: "faultinject.downlink_corrupted", unit: "count"},
		{name: "faultinject.uplink_dropped", unit: "count"},
		{name: "faultinject.uplink_corrupted", unit: "count"},
		{name: "faultinject.brownouts", unit: "count"},
		{name: "faultinject.fades", unit: "count"},
		{name: "telemetry.flight_dumps", unit: "count"},
		// faulted_survey: readings off the ground truth that passed CRC,
		// over the whole run
		{name: "fleet.silent_errors", unit: "count"},
		// surveys: each report published as a status frame
		{name: "shmwire.encode_us", unit: "us"},
		{name: "shmwire.frame_bytes", unit: "B"},
		{name: "shmwire.broadcast_us", unit: "us"},
		{name: "shmwire.decode_us", unit: "us"},
	}
	for _, l := range layers {
		// conc runs only inside fleet.Survey's fan-out, one public call
		// that spans recorded from outside cannot split; conc.speedup and
		// fleet.survey_cpu_util measure it instead.
		if l != "conc" {
			defs = append(defs, metricDef{name: l + ".self_ms", unit: "ms"})
		}
	}
	return append(defs,
		metricDef{name: "bench.uncovered_pct", unit: "%"},
		metricDef{name: "bench.ledger_gap_pct", unit: "%"},
		metricDef{name: "bench.trace_overhead_pct", unit: "%"},
		metricDef{name: "bench.traced_ops", unit: "count"},
	)
}()

// value is one measured figure with its sample count (0 when it is not a
// sample statistic).
type value struct {
	v float64
	n int
}

// result is what a workload hands back.
type result struct {
	attempted, failed int
	metrics           map[string]value
	problems          []string // failed correctness checks
	notes             []string // human-readable lines printed before the result
}

func newResult() *result { return &result{metrics: map[string]value{}} }

func (r *result) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

func (r *result) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// run is one workload: set up, measure for the given duration, check.
type run func(seed int64, seconds float64, traced bool) (*result, error)

var workloads = map[string]run{
	"acoustic_round": runAcoustic,
	"city_survey":    func(seed int64, s float64, tr bool) (*result, error) { return runSurvey(seed, s, tr, false) },
	"faulted_survey": func(seed int64, s float64, tr bool) (*result, error) { return runSurvey(seed, s, tr, true) },
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload one of %s, --seconds > 0, --trace 0|1\n",
			strings.Join(names, ", "))
		os.Exit(2)
	}
	fmt.Println("host:", fingerprint(*workload, *seed))
	t0 := readTicks()
	res, err := fn(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.note("host steal: %.1f%% of the CPU time the run wanted", 100*stealShare(t0, readTicks()))
	if !emit(*workload, res, *trace == 1) {
		os.Exit(1)
	}
}

// fingerprint identifies the host so absolute numbers are compared only
// like with like.
func fingerprint(workload string, seed int64) string {
	// A map of strings and numbers always marshals.
	b, _ := json.Marshal(map[string]any{
		"cpu":        cpuModel(),
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   workload,
		"seed":       seed,
	})
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks is the host's cumulative CPU time, in clock ticks, from the
// first line of /proc/stat: busy is user, nice, system, irq and softirq
// time, steal the time a hypervisor ran something else while this
// machine's CPUs had work. Both read 0 where /proc/stat cannot be read.
type cpuTicks struct{ busy, steal uint64 }

func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	var buf [512]byte
	n, _ := f.Read(buf[:])
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		switch i {
		case 3, 4:
		case 7:
			t.steal = v
		default:
			t.busy += v
		}
	}
	return t
}

// stealShare is the share of the CPU time wanted between a and b that the
// hypervisor stole: on a shared host it is time the program could not
// run, on whichever CPUs it ran.
func stealShare(a, b cpuTicks) float64 {
	steal, busy := float64(b.steal-a.steal), float64(b.busy-a.busy)
	if b.steal < a.steal || b.busy < a.busy || steal+busy == 0 {
		return 0
	}
	return steal / (steal + busy)
}

// emit prints the metric table and the JSON result line; it reports
// whether every correctness check passed.
func emit(workload string, res *result, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for name := range res.metrics {
		if !known[name] {
			panic("e2ebench: unlisted metric " + name)
		}
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jv{}
	for _, d := range defs {
		m, ok := res.metrics[d.name]
		if !ok && !traced {
			res.fail("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			res.fail("metric %s is not finite", d.name)
			m.v = 0
		}
		label := d.name
		if a := d.alias[workload]; a != "" {
			label += " (" + a + ")"
		}
		if ok || !traced {
			fmt.Printf("metric %-34s %14.6g %-6s n=%d\n", label, m.v, d.unit, m.n)
		}
		out[d.name] = jv{m.v, d.unit}
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	return len(res.problems) == 0
}

// setupRepeats times a set-up n times and keeps the last instance; setup_s
// is the median, each time net of the host's steal during it (see
// setTiming). The repetitions start at least setupSpread/n apart: the
// host's speed swings over tenths of a second, and set-ups packed into one
// swing would all read the same fast or slow value.
func setupRepeats[T any](n int, build func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	var times []float64
	start := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			var zero T
			last = zero
		}
		runtime.GC()
		if wait := time.Duration(i)*setupSpread/time.Duration(n) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		c0, t0 := readTicks(), time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds()*(1-stealShare(c0, readTicks())))
		last = v
	}
	return last, times, nil
}

// setupSpread is the least wall time the set-up repetitions span.
const setupSpread = 2 * time.Second

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setTiming reports a closed loop's timing from its operations in the
// order run: lat[i] is operation i's latency (ms), done[i] the useful work
// it completed (reads, or capsules reporting), and ticks[i] and
// ticks[i+1] the host's CPU time before and after it. Latencies are taken
// net of the host's steal: the run is cut into windows of stealWindow
// operations, and each window's latencies are scaled by one minus the
// share of the CPU time the hypervisor stole during it, time the program
// waited for a CPU the host had given to another machine. p50 and p90 are
// then taken over the whole run, and throughput is the work done per
// second of net operation time.
func setTiming(res *result, what string, lat, done []float64, ticks []cpuTicks) error {
	if tailPercentile(len(lat)) < 90 {
		return fmt.Errorf("%s: %d operations support no p90; raise --seconds", what, len(lat))
	}
	net := make([]float64, 0, len(lat))
	var steals []float64
	work, spent := 0.0, 0.0
	for _, w := range windows(len(lat), stealWindow) {
		share := stealShare(ticks[w.lo], ticks[w.hi])
		steals = append(steals, 100*share)
		for i := w.lo; i < w.hi; i++ {
			net = append(net, lat[i]*(1-share))
			work += done[i]
			spent += net[i]
		}
	}
	res.set("latency_ms_p50", median(net), len(net))
	res.set("latency_ms_p90", percentile(net, 90), len(net))
	res.set("throughput_per_s", 1e3*work/spent, len(net))
	noteLatency(res, what+", wall", lat)
	noteLatency(res, what+", net of steal", net)
	res.note("%s steal over %d windows of %d: %.1f–%.1f%%, median %.1f%%", what, len(steals), stealWindow,
		percentile(steals, 0), percentile(steals, 100), median(steals))
	return nil
}

// window is a half-open range [lo, hi) of operation indices.
type window struct{ lo, hi int }

// windows cuts n operations into as many contiguous windows of at least
// size as fit, one when n < size.
func windows(n, size int) []window {
	k := max(1, n/size)
	out := make([]window, k)
	for c := range out {
		out[c] = window{c * n / k, (c + 1) * n / k}
	}
	return out
}

// stealWindow is the operations over which steal is measured: at least
// 0.7 s of CPU time on the reference host (surveys of ~38 ms, rounds of
// ~150 ms), a few hundred of /proc/stat's 10 ms ticks.
const stealWindow = 20

// noteLatency notes a latency series' distribution.
func noteLatency(res *result, what string, xs []float64) {
	res.note("%s ms: p10 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p90 %.3f  max %.3f  (n=%d)", what,
		percentile(xs, 10), percentile(xs, 25), median(xs), percentile(xs, 75), percentile(xs, 90),
		percentile(xs, 100), len(xs))
}
