package rtmac

import (
	"slices"
	"testing"
)

// TestSnapshotsAllocateOnce checks that Snapshots copies every checkpoint's
// per-link slices into one buffer: two allocations per call at 5 and at 40
// checkpoints, values equal to the collector's series, and no slice aliasing
// the collector or another checkpoint.
func TestSnapshotsAllocateOnce(t *testing.T) {
	for _, intervals := range []int{50, 400} {
		links := make([]Link, 4)
		for i := range links {
			links[i] = Link{SuccessProb: 0.8, Arrivals: MustBernoulliArrivals(0.6), DeliveryRatio: 0.9}
		}
		s, err := NewSimulation(Config{Seed: 5, Profile: ControlProfile(), Links: links,
			Protocol: DBDP(), SnapshotEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(intervals); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.Snapshots() }); allocs != 2 {
			t.Errorf("%d checkpoints: Snapshots allocates %v times per call, want 2", intervals/10, allocs)
		}
		got, want := s.Snapshots(), s.col.Series()
		if len(got) != intervals/10 || len(got) != len(want) {
			t.Fatalf("%d snapshots, collector holds %d, want %d", len(got), len(want), intervals/10)
		}
		for i, w := range want {
			g := got[i]
			if g.Intervals != w.Intervals || !slices.Equal(g.Cumulative, w.Throughput) || !slices.Equal(g.Windowed, w.Windowed) {
				t.Fatalf("snapshot %d = %+v, collector has %+v", i, g, w)
			}
		}
		// Writing past a slice's length must not reach the next one, and
		// editing a copy must not reach the collector.
		got[0].Cumulative = append(got[0].Cumulative, -1)
		got[0].Windowed[0] = -1
		if got[0].Cumulative[0] != want[0].Throughput[0] || got[0].Windowed[0] == want[0].Windowed[0] ||
			!slices.Equal(got[1].Cumulative, want[1].Throughput) || !slices.Equal(got[0].Windowed[1:], want[0].Windowed[1:]) {
			t.Fatal("snapshot slices alias the collector or each other")
		}
	}
}
