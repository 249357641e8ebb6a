package mac

import (
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/sim"
)

const testSlot = 9

func newContentionFixture(t *testing.T, links int) (*sim.Engine, *medium.Medium, *Contention) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := make([]float64, links)
	for i := range p {
		p[i] = 1
	}
	med, err := medium.New(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := NewContention(eng, med, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	return eng, med, cont
}

func TestContentionFiresInCounterOrder(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 4)
	var fireTimes []sim.Time
	var fireLinks []int
	for link, counter := range []int{3, 1, 2, 0} {
		link, counter := link, counter
		cont.Add(link, counter, Contender{Fire: func() bool {
			fireTimes = append(fireTimes, eng.Now())
			fireLinks = append(fireLinks, link)
			med.Start(link, 100, false, nil)
			return true
		}})
	}
	cont.Settle()
	eng.Run()
	wantLinks := []int{3, 1, 2, 0}
	// Link 3 fires immediately at t=0; each subsequent link fires after its
	// remaining countdown runs during idle periods that follow each 100 µs
	// transmission.
	wantTimes := []sim.Time{0, 100 + testSlot, 200 + 2*testSlot, 300 + 3*testSlot}
	if len(fireLinks) != 4 {
		t.Fatalf("fired %d links, want 4", len(fireLinks))
	}
	for i := range wantLinks {
		if fireLinks[i] != wantLinks[i] || fireTimes[i] != wantTimes[i] {
			t.Fatalf("firing sequence %v at %v, want %v at %v",
				fireLinks, fireTimes, wantLinks, wantTimes)
		}
	}
}

func TestContentionFreezesWhileBusy(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 2)
	var fireAt sim.Time = -1
	cont.Add(0, 2, Contender{Fire: func() bool {
		fireAt = eng.Now()
		return false
	}})
	cont.Settle()
	// An external transmission from t=5 to t=105 freezes the countdown after
	// zero boundaries have elapsed (first boundary would be at 9).
	eng.ScheduleAt(5, func() { med.Start(1, 100, false, nil) })
	eng.Run()
	// Countdown resumes at 105: boundaries at 114 (counter 1) and 123 (fire).
	if fireAt != 123 {
		t.Fatalf("fired at %v, want 123", fireAt)
	}
}

func TestContentionSimultaneousZerosCollide(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 3)
	outcomes := map[int]medium.Outcome{}
	for link := 0; link < 2; link++ {
		link := link
		cont.Add(link, 2, Contender{Fire: func() bool {
			med.Start(link, 50, false, func(o medium.Outcome) { outcomes[link] = o })
			return true
		}})
	}
	cont.Settle()
	eng.Run()
	if outcomes[0] != medium.Collided || outcomes[1] != medium.Collided {
		t.Fatalf("outcomes = %v, want both collided", outcomes)
	}
}

func TestContentionReachedOneSensesBusy(t *testing.T) {
	// Link 0 fires at boundary 1; link 1's counter enters 1 at the same
	// boundary and must sense busy.
	eng, med, cont := newContentionFixture(t, 2)
	var sensedBusy *bool
	cont.Add(0, 1, Contender{Fire: func() bool {
		med.Start(0, 50, false, nil)
		return true
	}})
	cont.Add(1, 2, Contender{
		Fire:       func() bool { return false },
		ReachedOne: func(busy bool) { sensedBusy = &busy },
	})
	cont.Settle()
	eng.Run()
	if sensedBusy == nil {
		t.Fatal("ReachedOne never called")
	}
	if !*sensedBusy {
		t.Fatal("sensed idle, want busy (link 0 fired at the same boundary)")
	}
}

func TestContentionReachedOneSensesIdle(t *testing.T) {
	// Nobody fires when link 1's counter enters 1: it must sense idle.
	eng, _, cont := newContentionFixture(t, 2)
	var sensedBusy *bool
	cont.Add(1, 2, Contender{
		Fire:       func() bool { return false },
		ReachedOne: func(busy bool) { sensedBusy = &busy },
	})
	cont.Settle()
	eng.Run()
	if sensedBusy == nil {
		t.Fatal("ReachedOne never called")
	}
	if *sensedBusy {
		t.Fatal("sensed busy, want idle")
	}
}

func TestContentionDeclinedFireCountsAsIdle(t *testing.T) {
	// A link that fires but declines to transmit leaves the channel idle:
	// the sensing link at counter 1 must see idle.
	eng, _, cont := newContentionFixture(t, 2)
	var sensedBusy *bool
	cont.Add(0, 1, Contender{Fire: func() bool { return false }})
	cont.Add(1, 2, Contender{
		Fire:       func() bool { return false },
		ReachedOne: func(busy bool) { sensedBusy = &busy },
	})
	cont.Settle()
	eng.Run()
	if sensedBusy == nil || *sensedBusy {
		t.Fatalf("sensedBusy = %v, want idle", sensedBusy)
	}
}

func TestContentionSettleFiresInitialZeros(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 2)
	var fireAt sim.Time = -1
	cont.Add(0, 0, Contender{Fire: func() bool {
		fireAt = eng.Now()
		med.Start(0, 30, false, nil)
		return true
	}})
	cont.Settle()
	eng.Run()
	if fireAt != 0 {
		t.Fatalf("counter-0 entry fired at %v, want immediately at 0", fireAt)
	}
}

func TestContentionSettleSensesInitialOnes(t *testing.T) {
	// A counter starting at 1 senses at Settle time: busy iff some counter-0
	// entry starts transmitting at that same instant (the C(k)=1 corner of
	// the DP protocol).
	eng, med, cont := newContentionFixture(t, 2)
	var sensedBusy *bool
	cont.Add(0, 0, Contender{Fire: func() bool {
		med.Start(0, 30, false, nil)
		return true
	}})
	cont.Add(1, 1, Contender{
		Fire:       func() bool { return false },
		ReachedOne: func(busy bool) { sensedBusy = &busy },
	})
	cont.Settle()
	eng.Run()
	if sensedBusy == nil {
		t.Fatal("ReachedOne never called")
	}
	if !*sensedBusy {
		t.Fatal("sensed idle at settle, want busy")
	}
}

func TestContentionReachedOneFiresOnce(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 3)
	calls := 0
	// Busy period between entering 1 and firing must not re-trigger sensing.
	cont.Add(0, 2, Contender{
		Fire:       func() bool { return false },
		ReachedOne: func(bool) { calls++ },
	})
	cont.Settle()
	eng.ScheduleAt(10, func() { med.Start(1, 40, false, nil) })
	eng.Run()
	if calls != 1 {
		t.Fatalf("ReachedOne called %d times, want 1", calls)
	}
}

func TestContentionClearCancelsCountdown(t *testing.T) {
	eng, _, cont := newContentionFixture(t, 2)
	fired := false
	cont.Add(0, 3, Contender{Fire: func() bool { fired = true; return false }})
	cont.Settle()
	cont.Clear()
	eng.Run()
	if fired {
		t.Fatal("cleared entry fired")
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after Clear", eng.Pending())
	}
	if cont.Active() != 0 {
		t.Fatalf("Active = %d after Clear", cont.Active())
	}
}

func TestContentionRemove(t *testing.T) {
	eng, _, cont := newContentionFixture(t, 2)
	fired := map[int]bool{}
	for link := 0; link < 2; link++ {
		link := link
		cont.Add(link, 2, Contender{Fire: func() bool { fired[link] = true; return false }})
	}
	cont.Settle()
	cont.Remove(0)
	eng.Run()
	if fired[0] {
		t.Fatal("removed entry fired")
	}
	if !fired[1] {
		t.Fatal("remaining entry did not fire")
	}
}

func TestContentionCounterQuery(t *testing.T) {
	eng, _, cont := newContentionFixture(t, 2)
	cont.Add(0, 5, Contender{Fire: func() bool { return false }})
	if c, ok := cont.Counter(0); !ok || c != 5 {
		t.Fatalf("Counter(0) = %d, %v; want 5, true", c, ok)
	}
	if _, ok := cont.Counter(1); ok {
		t.Fatal("Counter(1) reported a non-contending link")
	}
	cont.Settle()
	eng.RunUntil(2 * testSlot)
	if c, ok := cont.Counter(0); !ok || c != 3 {
		t.Fatalf("Counter(0) after 2 slots = %d, %v; want 3, true", c, ok)
	}
}

func TestContentionAddPanics(t *testing.T) {
	_, _, cont := newContentionFixture(t, 2)
	cont.Add(0, 1, Contender{Fire: func() bool { return false }})
	for name, fn := range map[string]func(){
		"duplicate link":   func() { cont.Add(0, 2, Contender{Fire: func() bool { return false }}) },
		"negative counter": func() { cont.Add(1, -1, Contender{Fire: func() bool { return false }}) },
		"nil fire":         func() { cont.Add(1, 1, Contender{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestContentionValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	med, _ := medium.New(eng, []float64{1})
	if _, err := NewContention(nil, med, 9); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewContention(eng, nil, 9); err == nil {
		t.Error("nil medium accepted")
	}
	if _, err := NewContention(eng, med, 0); err == nil {
		t.Error("zero slot accepted")
	}
}

func TestContentionZeroCounterAddedDuringBusyDefersOneSlot(t *testing.T) {
	eng, med, cont := newContentionFixture(t, 2)
	var fireAt sim.Time = -1
	med.Start(1, 100, false, nil)
	cont.Add(0, 0, Contender{Fire: func() bool { fireAt = eng.Now(); return false }})
	cont.Settle() // busy: no effect
	eng.Run()
	if fireAt != 100+testSlot {
		t.Fatalf("fired at %v, want %v (one slot after idle)", fireAt, sim.Time(100+testSlot))
	}
}

// newGraphContentionFixture builds graph-mode contention on six links: two
// 3-cliques {0,1,2} and {3,4,5} joined by the single bridging edge 2-3.
func newGraphContentionFixture(t *testing.T) (*sim.Engine, *medium.Medium, *Contention) {
	t.Helper()
	eng := sim.NewEngine(1)
	g, err := medium.NewGraph(6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	med, err := medium.New(eng, []float64{1, 1, 1, 1, 1, 1}, medium.WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	cont, err := NewContention(eng, med, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	if cont.graph == nil {
		t.Fatal("fixture contention is not in graph mode")
	}
	return eng, med, cont
}

func TestContentionGraphFreezesPerNeighborhood(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	fireAt := map[int]sim.Time{}
	for _, link := range []int{0, 5} {
		cont.Add(link, 3, Contender{Fire: func() bool { fireAt[link] = eng.Now(); return false }})
	}
	cont.Settle()
	// Link 1 is busy over [5, 105): it silences link 0's neighborhood only.
	eng.ScheduleAt(5, func() { med.Start(1, 100, false, nil) })
	eng.Run()
	if fireAt[5] != 3*testSlot {
		t.Errorf("link 5 (other clique) fired at %v, want %v", fireAt[5], sim.Time(3*testSlot))
	}
	if want := sim.Time(105 + 3*testSlot); fireAt[0] != want {
		t.Errorf("link 0 fired at %v, want %v (frozen before its first boundary)", fireAt[0], want)
	}
}

func TestContentionGraphIdleReanchorLosesPartialSlot(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	var fireAt sim.Time = -1
	cont.Add(0, 2, Contender{Fire: func() bool { fireAt = eng.Now(); return false }})
	cont.Settle()
	// One boundary elapses at 9 (counter 1); the freeze at 14 drops the
	// 5 µs of the next slot, and the countdown restarts on a grid anchored
	// at 50.
	eng.ScheduleAt(14, func() { med.Start(1, 36, false, nil) })
	eng.Run()
	if want := sim.Time(50 + testSlot); fireAt != want {
		t.Fatalf("fired at %v, want %v", fireAt, want)
	}
}

func TestContentionGraphSameInstantFiresInLinkOrder(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	var order []int
	outcomes := map[int]medium.Outcome{}
	for _, link := range []int{5, 1, 0} {
		cont.Add(link, 2, Contender{Fire: func() bool {
			if eng.Now() != 2*testSlot {
				t.Errorf("link %d fired at %v, want %v", link, eng.Now(), sim.Time(2*testSlot))
			}
			order = append(order, link)
			med.Start(link, 50, false, func(o medium.Outcome) { outcomes[link] = o })
			return true
		}})
	}
	cont.Settle()
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 5 {
		t.Fatalf("fire order %v, want [0 1 5]", order)
	}
	// 0 and 1 share a clique and collide; 5 reuses the channel.
	if outcomes[0] != medium.Collided || outcomes[1] != medium.Collided || outcomes[5] != medium.Delivered {
		t.Fatalf("outcomes %v, want 0 and 1 collided, 5 delivered", outcomes)
	}
}

func TestContentionGraphZeroCounterWhileBusyWaitsOneSlot(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	fireAt := map[int]sim.Time{}
	med.Start(1, 100, false, nil)
	for _, link := range []int{0, 5} {
		cont.Add(link, 0, Contender{Fire: func() bool { fireAt[link] = eng.Now(); return false }})
	}
	cont.Settle() // fires link 5 at once; link 0's neighborhood is busy
	eng.Run()
	if fireAt[5] != 0 {
		t.Errorf("idle-neighborhood zero fired at %v, want 0", fireAt[5])
	}
	if want := sim.Time(100 + testSlot); fireAt[0] != want {
		t.Errorf("busy-neighborhood zero fired at %v, want %v (one slot after idle)", fireAt[0], want)
	}
}

func TestContentionGraphReachedOneOnceWithLocalBusy(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	cont.Add(0, 1, Contender{Fire: func() bool {
		med.Start(0, 50, false, nil)
		return true
	}})
	sensed := map[int][]bool{}
	fired := map[int]sim.Time{}
	for _, link := range []int{1, 5} {
		cont.Add(link, 2, Contender{
			Fire:       func() bool { fired[link] = eng.Now(); return false },
			ReachedOne: func(busy bool) { sensed[link] = append(sensed[link], busy) },
		})
	}
	cont.Settle()
	eng.Run()
	// At 9 link 0 fires; link 1 hears it, link 5 in the other clique does
	// not. Link 1 then freezes until 59 and fires a slot later without
	// sensing again.
	if s := sensed[1]; len(s) != 1 || !s[0] {
		t.Errorf("link 1 sensed %v, want exactly [true]", s)
	}
	if s := sensed[5]; len(s) != 1 || s[0] {
		t.Errorf("link 5 sensed %v, want exactly [false]", s)
	}
	if want := sim.Time(testSlot + 50 + testSlot); fired[1] != want {
		t.Errorf("link 1 fired at %v, want %v", fired[1], want)
	}
	if fired[5] != 2*testSlot {
		t.Errorf("link 5 fired at %v, want %v", fired[5], sim.Time(2*testSlot))
	}
}

func TestContentionGraphClearCancelsClock(t *testing.T) {
	eng, _, cont := newGraphContentionFixture(t)
	fired := false
	for _, link := range []int{0, 4} {
		cont.Add(link, 3, Contender{Fire: func() bool { fired = true; return false }})
	}
	cont.Settle()
	cont.Clear()
	if eng.ClockArmed() || eng.Pending() != 0 || cont.Active() != 0 {
		t.Fatalf("after Clear: clock armed %v, %d pending, %d active",
			eng.ClockArmed(), eng.Pending(), cont.Active())
	}
	eng.Run()
	if fired {
		t.Fatal("cleared entry fired")
	}
	// The next interval's contention starts from a clean slate.
	var fireAt sim.Time = -1
	cont.Add(2, 1, Contender{Fire: func() bool { fireAt = eng.Now(); return false }})
	start := eng.Now()
	eng.Run()
	if fireAt != start+testSlot {
		t.Fatalf("entry added after Clear fired at %v, want %v", fireAt, start+testSlot)
	}
}

func TestContentionGraphCounterMatchesPerSlotCountdown(t *testing.T) {
	eng, med, cont := newGraphContentionFixture(t)
	fireAt := map[int]sim.Time{}
	for _, lc := range [][2]int{{0, 7}, {5, 4}} {
		link := lc[0]
		cont.Add(link, lc[1], Contender{Fire: func() bool { fireAt[link] = eng.Now(); return false }})
	}
	cont.Settle()
	// Link 1 is busy over [20, 60). Per slot, link 0 counts 7 → 6 at 9,
	// 5 at 18, freezes, resumes on a grid anchored at 60 (4 at 69, ...,
	// 1 at 96) and fires at 105; link 5 counts 3, 2, 1 at 9, 18, 27 and
	// fires at 36. Reads land between boundaries or on pure decrements.
	eng.ScheduleAt(20, func() { med.Start(1, 40, false, nil) })
	want := []struct {
		at      sim.Time
		link    int
		counter int
	}{
		{0, 0, 7}, {9, 0, 6}, {9, 5, 3}, {13, 0, 6}, {18, 0, 5}, {30, 0, 5}, {30, 5, 1},
		{40, 5, -1}, {60, 0, 5}, {69, 0, 4}, {100, 0, 1}, {110, 0, -1},
	}
	for _, w := range want {
		eng.ScheduleAt(w.at, func() {
			got, ok := cont.Counter(w.link)
			if !ok {
				got = -1
			}
			if got != w.counter {
				t.Errorf("Counter(%d) at %v = %d, want %d", w.link, w.at, got, w.counter)
			}
		})
	}
	eng.Run()
	if fireAt[0] != 105 || fireAt[5] != 36 {
		t.Fatalf("fired at %v, want link 0 at 105 and link 5 at 36", fireAt)
	}
}
