package shmwire

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// e2eFleet builds the pinned end-to-end fleet: one station surveying two
// capsules under 5 % injected frame loss.
func e2eFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	wall := geometry.CommonWall()
	var capsules []*node.Node
	var positions []geometry.Vec3
	for i, x := range []float64{1.0, 2.0} {
		pos := geometry.Vec3{X: x, Y: wall.Height / 2, Z: 0.1}
		positions = append(positions, pos)
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0x10 + i),
			Position: pos,
			Seed:     int64(7 + i),
		}))
	}
	plan, err := deploy.Cover(wall, positions, 200)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(wall, plan, capsules, 42)
	if err != nil {
		t.Fatal(err)
	}
	fl.SetEnvironment(func(geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 20, RelativeHumidity: 55}
	})
	fl.ApplyInjector(faultinject.MustNew(faultinject.Plan{Seed: 3, FrameLossProb: 0.05}))
	return fl
}

// e2eTraceScenario runs the end-to-end trace over fl: the fleet surveys
// under a seeded tracer, broadcasts the resulting status over a real TCP
// shmwire session with the survey span's trace context attached, and a
// reconnecting subscriber records the remote-parented receipt. It returns
// the broadcaster's and the subscriber's rendered span trees.
func e2eTraceScenario(t *testing.T, fl *fleet.Fleet) (serverTree, clientTree string) {
	t.Helper()
	fleetTracer := telemetry.NewTracer(42)
	fl.SetTracer(fleetTracer)

	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetLogf(func(string, ...any) {})

	clientTracer := telemetry.NewTracer(99)
	rc := NewReconnectingClient(ReconnectConfig{
		Addr:   srv.Addr().String(),
		Name:   "golden-subscriber",
		Tracer: clientTracer,
	})
	defer rc.Close()
	if err := rc.Connect(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Subscribers() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rep, surveySpan := fl.SurveyTraced(0.4)
	if surveySpan == nil {
		t.Fatal("traced fleet returned no survey span")
	}
	// The broadcast rides as a child of the survey span, so the wire hop is
	// part of the same trace the readers populated.
	bsp := surveySpan.Child("broadcast").Attr("reporting", rep.Reporting)
	ctx := bsp.Context()
	tc := &TraceContext{TraceID: ctx.TraceID, SpanID: ctx.SpanID, LogicalTS: 1000}
	srv.BroadcastStatusTraced(Status{
		Timestamp:    time.Unix(0, 0).UTC(),
		Expected:     uint16(rep.Expected),
		Reporting:    uint16(rep.Reporting),
		Degraded:     rep.Degraded,
		MissingNodes: rep.Missing,
	}, tc)
	bsp.End()

	for {
		ev, err := rc.Next()
		if err != nil {
			t.Fatalf("subscriber stream died before the status arrived: %v", err)
		}
		if ev.Type == MsgStatus {
			if ev.Trace == nil {
				t.Fatal("status frame lost its trace context on the wire")
			}
			if ev.Trace.TraceID != ctx.TraceID || ev.Trace.SpanID != ctx.SpanID {
				t.Fatalf("trace context corrupted: got %+v want %+v", ev.Trace, ctx)
			}
			break
		}
	}
	return fleetTracer.Tree(), clientTracer.Tree()
}

// TestGoldenEndToEndTrace pins the full cross-process span tree — reader
// interrogations under the fleet survey, the broadcast hop, and the
// subscriber's remote-parented receipt — to one golden file. Same seeds,
// byte-identical trees on both sides of the TCP session. Regenerate with:
// go test ./internal/shmwire -run TestGoldenEndToEndTrace -update
func TestGoldenEndToEndTrace(t *testing.T) {
	serverTree, clientTree := e2eTraceScenario(t, e2eFleet(t))
	got := "=== server ===\n" + serverTree + "=== subscriber ===\n" + clientTree

	golden := filepath.Join("testdata", "golden_e2e_trace.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("end-to-end trace diverged from golden file\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestEndToEndTraceDeterministic runs the scenario twice in one process;
// fresh seeded tracers must reproduce both trees byte for byte.
func TestEndToEndTraceDeterministic(t *testing.T) {
	s1, c1 := e2eTraceScenario(t, e2eFleet(t))
	s2, c2 := e2eTraceScenario(t, e2eFleet(t))
	if s1 != s2 {
		t.Error("same seeds, different server trees")
	}
	if c1 != c2 {
		t.Error("same seeds, different subscriber trees")
	}
}

// TestTracedFaultedBroadcastInvariance runs the end-to-end trace over a
// sharded, faulted fleet (dead station, frame loss and corruption): the
// broadcaster's and the subscriber's span trees must be byte-identical at
// every shard count, because the survey's fault draws and span IDs are
// keyed, not drawn in schedule order.
func TestTracedFaultedBroadcastInvariance(t *testing.T) {
	run := func(shards int) string {
		wall := geometry.CommonWall()
		var capsules []*node.Node
		var positions []geometry.Vec3
		for i := 0; i < 12; i++ {
			pos := geometry.Vec3{X: 0.5 + float64(i)*1.6, Y: wall.Height / 2, Z: 0.1}
			positions = append(positions, pos)
			capsules = append(capsules, node.New(node.Config{
				Handle:   uint16(0x40 + i),
				Position: pos,
				Seed:     int64(i),
			}))
		}
		plan, err := deploy.Cover(wall, positions, 200)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := fleet.NewSharded(wall, plan, capsules, 9, fleet.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && fl.Shards() < 2 {
			t.Fatalf("shards=%d built only %d shards", shards, fl.Shards())
		}
		fl.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
			return sensors.Environment{TemperatureC: 15 + pos.X, RelativeHumidity: 55}
		})
		fl.ApplyInjector(faultinject.MustNew(faultinject.Plan{
			Seed:             4,
			FrameLossProb:    0.15,
			FrameCorruptProb: 0.10,
			DeadStations:     []int{0},
		}))
		serverTree, clientTree := e2eTraceScenario(t, fl)
		return serverTree + clientTree
	}
	serial := run(1)
	for _, k := range []int{3, 7} {
		if got := run(k); got != serial {
			t.Errorf("shards=%d diverged from 1-shard serial:\n--- shards=%d\n%s--- serial\n%s",
				k, k, got, serial)
		}
	}
}
