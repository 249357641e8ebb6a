package experiment

import (
	"slices"
	"testing"

	"rtmac"
	"rtmac/internal/ledger"
	"rtmac/internal/stats"
)

// TestLedgerMergeFidelity is the cross-process exactness pin for the run
// ledger: running N seeds as N separate "processes" (one record per seed,
// appended to a real store) and merging the records yields byte-for-byte the
// record a single process aggregating all N seeds produces. Seeds are passed
// to each job explicitly, sidestepping the sweep harness's job-order-dependent
// seed schedule.
func TestLedgerMergeFidelity(t *testing.T) {
	cfg, err := videoConfig(0.55, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = rtmac.DBDP()
	opts := RunOptions{}.fill()
	seeds := []uint64{101, 202, 303}

	record := func(runSeeds []uint64) *ledger.Record {
		t.Helper()
		agg := &stats.PointAggregate{}
		for _, seed := range runSeeds {
			cfg.Seed = seed
			out, err := job{cfg: cfg, intervals: 60}.run(opts)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(out.replication(seed, out.sim.TotalDeficiency()))
		}
		rec := ledger.NewRecorder()
		rec.RecordAggregate("fig3", "DB-DP", 0.55, "deficiency", ledger.BetterLower, agg)
		out, err := rec.Finalize("figures", "merge fidelity", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// One record per seed, appended to a real store like separate processes
	// would, then merged via ledgerctl's path.
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var parts []*ledger.Record
	var ids []string
	for _, seed := range seeds {
		rec := record([]uint64{seed})
		id, err := store.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, loaded)
		ids = append(ids, id)
	}
	merged, err := ledger.Merge(parts, ids)
	if err != nil {
		t.Fatal(err)
	}

	combined := record(seeds)

	// The merged partial and summary must match the in-process aggregate
	// exactly — same replication multiset, same Welford fold.
	if len(merged.Points) != 1 || len(combined.Points) != 1 {
		t.Fatalf("points: merged %d, combined %d", len(merged.Points), len(combined.Points))
	}
	mp, cp := merged.Points[0], combined.Points[0]
	if mp.Summary != cp.Summary {
		t.Fatalf("merged summary %+v != in-process summary %+v", mp.Summary, cp.Summary)
	}
	if !slices.Equal(mp.Agg.Reps, cp.Agg.Reps) {
		t.Fatal("merged partial differs from in-process partial")
	}

	// And the sentinel agrees the two are indistinguishable.
	rep, err := ledger.Diff(combined, merged, ledger.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRegression() {
		t.Fatal("self-equivalent records diff as regression")
	}
}
