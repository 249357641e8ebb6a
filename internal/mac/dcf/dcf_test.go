package dcf

import (
	"testing"

	"rtmac/internal/arrival"
	"rtmac/internal/mac"
	"rtmac/internal/metrics"
	"rtmac/internal/phy"
)

func fastProfile() phy.Profile {
	return phy.Profile{Name: "test", Slot: 1, DataAirtime: 10, EmptyAirtime: 2, Interval: 400}
}

func TestValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero links accepted")
	}
}

func runDCF(t *testing.T, seed uint64, n int, p float64, perLink int, q float64,
	intervals int) (*mac.Network, *metrics.Collector, *Protocol) {
	t.Helper()
	prot, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	req := make([]float64, n)
	probs := make([]float64, n)
	for i := range req {
		req[i] = q
		probs[i] = p
	}
	col, err := metrics.NewCollector(req)
	if err != nil {
		t.Fatal(err)
	}
	av, err := arrival.Uniform(n, arrival.Deterministic{N: perLink})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := mac.NewNetwork(mac.NetworkConfig{
		Seed:        seed,
		Profile:     fastProfile(),
		SuccessProb: probs,
		Arrivals:    av,
		Required:    req,
		Protocol:    prot,
		Observers:   []mac.Observer{col},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(intervals); err != nil {
		t.Fatal(err)
	}
	return nw, col, prot
}

func TestDCFDeliversLightLoad(t *testing.T) {
	_, col, _ := runDCF(t, 1, 2, 1, 1, 0.95, 500)
	if d := col.TotalDeficiency(); d > 0.02 {
		t.Fatalf("light-load deficiency %v", d)
	}
}

func TestDCFCollisionRateGrowsWithNetworkSize(t *testing.T) {
	// Bianchi's observation, the paper's motivation for collision-free
	// backoff: more stations, higher collision share.
	collisionShare := func(n int) float64 {
		nw, _, _ := runDCF(t, 7, n, 1, 2, 0, 200)
		st := nw.Medium().Stats()
		if st.Transmissions == 0 {
			t.Fatal("no transmissions")
		}
		return float64(st.Collisions) / float64(st.Transmissions)
	}
	small := collisionShare(2)
	large := collisionShare(16)
	if large <= small {
		t.Fatalf("collision share did not grow with size: n=2 gives %v, n=16 gives %v",
			small, large)
	}
	if large == 0 {
		t.Fatal("16 contending stations never collided")
	}
}

func TestDCFWindowDoublesOnFailureAndResetsOnSuccess(t *testing.T) {
	// With p = 1 and a single link there are no failures: the window must
	// stay at cwMin.
	_, _, prot := runDCF(t, 3, 1, 1, 2, 0, 50)
	if got := prot.Window(0); got != cwMin {
		t.Fatalf("lossless single station window %d, want cwMin", got)
	}
	// With p = 0.05 the window of a retrying station must have grown beyond
	// cwMin at some point; since success resets it, probe right after a run
	// where the last attempts almost surely failed.
	_, _, lossy := runDCF(t, 4, 1, 0.05, 6, 0, 30)
	if got := lossy.Window(0); got <= cwMin {
		t.Fatalf("heavily lossy station window %d, want > cwMin", got)
	}
}

// TestDCFWindowCapped drives repeated failures through the protocol: a
// lone station whose transmissions almost never succeed doubles its window
// on every missing ACK, which must stop at cwMax.
func TestDCFWindowCapped(t *testing.T) {
	_, _, prot := runDCF(t, 5, 1, 1e-9, 20, 0, 50)
	if got := prot.Window(0); got != cwMax {
		t.Fatalf("window after repeated failures %d, want cwMax %d", got, cwMax)
	}
}
