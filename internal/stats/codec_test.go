package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func randPoint(rng *rand.Rand, n int) *PointAggregate {
	var a PointAggregate
	for i := 0; i < n; i++ {
		a.Add(Replication{
			Seed:       rng.Uint64() % 1000,
			Value:      rng.Float64() * 5,
			DelayP50:   rng.Float64() * 100,
			DelayP95:   rng.Float64() * 500,
			DelayP99:   rng.Float64() * 900,
			DelayCount: rng.Int63n(10000),
		})
	}
	return &a
}

// TestJSONByteStability checks decode∘encode is the identity on a point
// state's JSON bytes: fixed field order plus Go's shortest-round-trip float
// formatting make re-encoding a decoded state reproduce the input exactly.
func TestJSONByteStability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 9} {
		first, err := json.Marshal(randPoint(rng, n).State())
		if err != nil {
			t.Fatal(err)
		}
		var st PointState
		if err := json.Unmarshal(first, &st); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%d replications: JSON not byte-stable:\n  %s\n  %s", n, first, second)
		}
	}
}

// TestAccumulatorMergeMatchesSingleStream checks Chan et al. pairwise merge
// against one accumulator that saw everything, within float tolerance.
func TestAccumulatorMergeMatchesSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole Accumulator
	parts := make([]*Accumulator, 4)
	for i := range parts {
		parts[i] = &Accumulator{}
	}
	for i := 0; i < 4000; i++ {
		x := rng.NormFloat64()*3 + 10
		whole.Add(x)
		parts[i%4].Add(x)
	}
	var merged Accumulator
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("count %d != %d", merged.Count(), whole.Count())
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-12 {
		t.Fatalf("mean %v != %v", merged.Mean(), whole.Mean())
	}
	if math.Abs(merged.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("variance %v != %v", merged.Variance(), whole.Variance())
	}
}

// TestPointStateMergeExact is the exactness pin for the run ledger: however
// the replication multiset is split into serialized shards and whatever order
// the shards are recombined in, the canonical state — and therefore the
// Welford fold and every summary statistic — is IDENTICAL to the
// single-process aggregate, bit for bit.
func TestPointStateMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	whole := randPoint(rng, 24)
	want := whole.State()
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := whole.Summary(0.95)

	reps := want.Reps
	splits := [][]int{
		{24},         // one shard
		{1, 23},      // singleton first
		{8, 8, 8},    // even thirds
		{23, 1},      // singleton last
		{5, 7, 3, 9}, // ragged
	}
	for si, sizes := range splits {
		// Cut the multiset into shards, round-trip each through JSON (the
		// form the ledger stores), then merge in reverse order to stress
		// order-independence.
		var shards []*PointAggregate
		at := 0
		for _, size := range sizes {
			var shard PointAggregate
			for _, r := range reps[at : at+size] {
				shard.Add(r)
			}
			at += size
			data, err := json.Marshal(shard.State())
			if err != nil {
				t.Fatal(err)
			}
			var back PointState
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			restored, err := PointFromState(back)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, restored)
		}
		var merged PointAggregate
		for i := len(shards) - 1; i >= 0; i-- {
			merged.Merge(shards[i])
		}
		got, err := json.Marshal(merged.State())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("split %d: merged state differs from single-process state", si)
		}
		if merged.Summary(0.95) != wantSum {
			t.Fatalf("split %d: merged summary differs from single-process summary", si)
		}
	}
}
