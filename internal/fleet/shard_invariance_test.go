package fleet

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/telemetry"
)

// shardedSurveyFleet builds a sharded fleet over fresh capsules (node state
// is mutable, so every shard count gets its own population with identical
// configs and seeds).
func shardedSurveyFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	wall := geometry.CommonWall()
	var capsules []*node.Node
	var positions []geometry.Vec3
	for i := 0; i < 24; i++ {
		pos := geometry.Vec3{X: 0.5 + float64(i)*0.8, Y: 10, Z: 0.1}
		positions = append(positions, pos)
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0x300 + i),
			Position: pos,
			Seed:     int64(i),
		}))
	}
	plan, err := deploy.Cover(wall, positions, 200)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(wall, plan, capsules, 7, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// shardCounts are the shard counts every invariance test compares against
// the 1-shard reference; over-asking clamps to the cell count.
var shardCounts = []int{3, 7, 1 << 10}

// TestShardCountInvariance is the sharding contract as a property test:
// capsule ownership keys off the geometry-derived cell grid, never the
// shard count, so resharding the same fleet must leave the survey report
// byte-identical — including to the 1-shard fleet, whose single queue
// conc.Queues runs inline in ascending handle order.
func TestShardCountInvariance(t *testing.T) {
	ref := shardedSurveyFleet(t, 1)
	ref.SetEnvironment(surveyEnv)
	serial := ref.Survey(0.4).Text()

	for _, k := range shardCounts {
		f := shardedSurveyFleet(t, k)
		f.SetEnvironment(surveyEnv)
		if f.Shards() < 2 {
			t.Fatalf("shards=%d built only %d shards", k, f.Shards())
		}
		if got := f.Survey(0.4).Text(); got != serial {
			t.Errorf("shards=%d diverged from 1-shard serial:\n--- shards=%d\n%s--- serial\n%s",
				k, k, got, serial)
		}
	}
}

// TestTracedFaultedSurveyInvariance extends the property to faulted and
// traced surveys: with a fault injector (dead station, frame loss and
// corruption) and a tracer installed, the report, the injector's counters
// and the span tree must be byte-identical at every shard count. Keyed
// fault draws and keyed span IDs make all three independent of the
// schedule; run it at -cpu 1,2,4 under -race to vary the interleaving.
func TestTracedFaultedSurveyInvariance(t *testing.T) {
	run := func(k int) string {
		f := shardedSurveyFleet(t, k)
		f.SetEnvironment(surveyEnv)
		in := faultinject.MustNew(faultinject.Plan{
			Seed:             11,
			FrameLossProb:    0.15,
			FrameCorruptProb: 0.10,
			DeadStations:     []int{1},
		})
		f.ApplyInjector(in)
		tr := telemetry.NewTracer(5)
		f.SetTracer(tr)
		rep := f.Survey(0.4)
		if k == 1 && (rep.Retries == 0 || rep.CorruptedReplies == 0 || len(rep.DeadStations) != 1) {
			t.Fatalf("fault plan left no mark on the survey:\n%s", rep.Text())
		}
		return fmt.Sprintf("%s%+v\n%s", rep.Text(), in.Stats(), tr.Tree())
	}
	serial := run(1)
	for _, k := range shardCounts {
		if got := run(k); got != serial {
			t.Errorf("shards=%d diverged from 1-shard serial:\n--- shards=%d\n%s--- serial\n%s",
				k, k, got, serial)
		}
	}
}

// TestShardedSurveyConsistentUnderChurn runs the torn-snapshot invariants
// against a multi-shard fleet while stations die and revive across shard
// boundaries — the cross-shard analogue of the flat churn test, and the
// -race exercise for the route/shard lock ordering.
func TestShardedSurveyConsistentUnderChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := shardedSurveyFleet(t, 3)
	f.SetEnvironment(surveyEnv)
	f.Charge(0.4)

	var stop atomic.Bool
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; !stop.Load(); i++ {
			victim := i % f.Stations()
			f.KillStation(victim)
			f.ReviveStation(victim)
		}
	}()
	defer func() {
		stop.Store(true)
		<-churnDone
	}()
	for i := 0; i < 60; i++ {
		rep := f.Survey(0.001)
		if rep.AliveStations+len(rep.DeadStations) != rep.Stations {
			t.Fatalf("survey %d: torn snapshot: %d alive + %d dead != %d stations",
				i, rep.AliveStations, len(rep.DeadStations), rep.Stations)
		}
		dead := make(map[int]bool, len(rep.DeadStations))
		for _, s := range rep.DeadStations {
			dead[s] = true
		}
		orphanRows := 0
		for _, row := range rep.Rows {
			if row.Status == "orphan" {
				orphanRows++
			}
			if row.Status == "ok" && dead[row.Station] {
				t.Fatalf("survey %d: row %#04x served by station %d that the same report lists dead",
					i, row.Handle, row.Station)
			}
		}
		if orphanRows != len(rep.Orphans) {
			t.Fatalf("survey %d: %d orphan rows vs %d listed orphans", i, orphanRows, len(rep.Orphans))
		}
	}
}
