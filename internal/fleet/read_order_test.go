package fleet

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
)

// sortedReadOrder is the per-read ordering the fleet used before station
// orders were fixed at construction: every alive station with a built
// channel, sorted by amplitude descending, ties by ascending index.
func sortedReadOrder(amps []float64, alive []bool) []int {
	out := []int{}
	for i := range amps {
		if alive[i] && amps[i] >= 0 {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if amps[out[a]] > amps[out[b]] {
			return true
		}
		if amps[out[a]] < amps[out[b]] {
			return false
		}
		return out[a] < out[b]
	})
	return out
}

// TestReadOrderMatchesSortAfterKill kills each demo-fleet station in turn
// and checks every capsule's read order against the sort-based order.
func TestReadOrderMatchesSortAfterKill(t *testing.T) {
	f, capsules, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	for victim := 0; victim < f.Stations(); victim++ {
		f.KillStation(victim)
		alive := make([]bool, f.Stations())
		for i := range alive {
			alive[i] = f.StationAlive(i)
		}
		for _, n := range capsules {
			h := n.Handle()
			got := f.readOrder(h, alive)
			want := sortedReadOrder(f.amps[h], alive)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("station %d dead, capsule %#04x: order %v, sort gives %v", victim, h, got, want)
			}
		}
		f.ReviveStation(victim)
	}
}

// TestStationOrderTies pins the tie-break on an amplitude table with equal
// amplitudes, unreachable stations and a zero amplitude, under every
// liveness pattern of its six stations.
func TestStationOrderTies(t *testing.T) {
	amps := []float64{0.5, -1, 0.7, 0.5, 0.7, 0}
	order := stationOrder(amps)
	if want := []int{2, 4, 0, 3, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("stationOrder = %v, want %v", order, want)
	}
	f := &Fleet{order: map[uint16][]int{1: order}}
	for mask := 0; mask < 1<<len(amps); mask++ {
		alive := make([]bool, len(amps))
		for i := range alive {
			alive[i] = mask&(1<<i) != 0
		}
		want := sortedReadOrder(amps, alive)
		if got := f.readOrder(1, alive); !reflect.DeepEqual(got, want) {
			t.Errorf("alive %v: order %v, sort gives %v", alive, got, want)
		}
	}
}

// TestFleetReadSilentWrapsErrSilent: a fleet read that every station lost
// reports reader.ErrSilent through the fleet's wrapping.
func TestFleetReadSilentWrapsErrSilent(t *testing.T) {
	f, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	f.Charge(0.4)
	f.SetFrameFaults(faultinject.MustNew(faultinject.Plan{Seed: 1, FrameLossProb: 1}))
	_, err = f.ReadSensor(0x90, sensors.TypeTempHumidity)
	if !errors.Is(err, reader.ErrSilent) {
		t.Fatalf("read with every frame lost: got %v, want a wrapped reader.ErrSilent", err)
	}
}
