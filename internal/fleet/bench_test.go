package fleet

import "testing"

// BenchmarkFleetSurvey measures the full demo-fleet survey — charge, read,
// report — the fleet-layer hot path that the per-station fan-out
// accelerates on multi-core hosts.
func BenchmarkFleetSurvey(b *testing.B) {
	f, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := f.Survey(0.4)
		if rep.Reporting == 0 {
			b.Fatal("survey reported nothing")
		}
	}
}

// BenchmarkFleetCharge isolates the charge loop (amplitude hoisting plus
// the per-station partition).
func BenchmarkFleetCharge(b *testing.B) {
	f, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if up := f.Charge(0.4); up == 0 {
			b.Fatal("nothing powered up")
		}
	}
}

// BenchmarkFleetInventory measures the partitioned concurrent inventory.
func BenchmarkFleetInventory(b *testing.B) {
	f, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		b.Fatal(err)
	}
	f.Charge(0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if found := f.Inventory(16); len(found) == 0 {
			b.Fatal("inventory found nothing")
		}
	}
}

// City-segment benchmarks: the 5,000-capsule, 8-shard segment the
// repository benchmark's city_survey workload runs, viewed from inside the
// package. Survey is timed warm (one survey before the clock starts); the
// build is timed on its own because it is the bring-up cost.
const (
	benchCityCapsules = 5000
	benchCityShards   = 8
)

// BenchmarkCitySurvey measures one warm survey of the city segment.
func BenchmarkCitySurvey(b *testing.B) {
	f, err := NewCityFleet(benchCityCapsules, benchCityShards, 1)
	if err != nil {
		b.Fatal(err)
	}
	f.SetEnvironment(CityEnvironment)
	if rep := f.Survey(0.4); rep.Reporting != rep.Expected {
		b.Fatalf("warm-up survey: %d of %d reporting", rep.Reporting, rep.Expected)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := f.Survey(0.4); rep.Reporting != rep.Expected {
			b.Fatalf("survey: %d of %d reporting", rep.Reporting, rep.Expected)
		}
	}
}

// BenchmarkCityBuild measures constructing the city segment: the range
// sweep, every station's channels, the capsules' sensors and slotters.
func BenchmarkCityBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCityFleet(benchCityCapsules, benchCityShards, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
