package journey

import (
	"bytes"
	"strings"
	"testing"

	"rtmac/internal/medium"
	"rtmac/internal/perm"
	"rtmac/internal/sim"

	"rtmac/internal/telemetry"
)

func TestClassify(t *testing.T) {
	lost := Attempt{Start: 10, End: 20, Outcome: outcomeLost}
	coll := Attempt{Start: 30, End: 40, Outcome: outcomeCollided}
	round := Round{Backoff: 3, Sense: -1}
	cases := []struct {
		name     string
		attempts []Attempt
		rounds   []Round
		want     string
	}{
		{"no activity", nil, nil, CauseExpiredInQueue},
		{"rounds only", nil, []Round{round}, CauseNeverWonContention},
		{"last attempt lost", []Attempt{coll, lost}, []Round{round}, CauseLostToChannel},
		{"last attempt collided", []Attempt{lost, coll}, nil, CauseLostToCollision},
	}
	for _, tc := range cases {
		if got := classify(tc.attempts, tc.rounds); got != tc.want {
			t.Errorf("%s: classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestValidCauseAndCauses(t *testing.T) {
	for _, c := range Causes() {
		if !ValidCause(c) {
			t.Errorf("canonical cause %q not valid", c)
		}
	}
	if ValidCause("starved") {
		t.Error("unknown cause accepted")
	}
	if len(Causes()) != 5 {
		t.Errorf("expected 5 causes, got %d", len(Causes()))
	}
}

func validDelivered() Journey {
	return Journey{
		Seq: 7, K: 2, Link: 1, Idx: 0,
		Arrived: 100, Deadline: 200,
		Cause:  CauseDelivered,
		DoneAt: 160, Delay: 60,
		Rounds:   []Round{{Backoff: 2, Sense: 0, Fired: true, Started: true}},
		Attempts: []Attempt{{Start: 120, End: 140, Outcome: outcomeLost}, {Start: 150, End: 160, Outcome: outcomeDelivered}},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	j := validDelivered()
	if err := j.Validate(); err != nil {
		t.Fatalf("valid journey rejected: %v", err)
	}
	miss := Journey{Seq: 1, K: 0, Arrived: 0, Deadline: 50, Cause: CauseNeverWonContention,
		Rounds: []Round{{Backoff: 5, Sense: 1}}}
	if err := miss.Validate(); err != nil {
		t.Fatalf("valid miss rejected: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	mutations := map[string]func(*Journey){
		"negative link":        func(j *Journey) { j.Link = -1 },
		"deadline not after":   func(j *Journey) { j.Deadline = j.Arrived },
		"unknown cause":        func(j *Journey) { j.Cause = "vanished" },
		"attempt before prev":  func(j *Journey) { j.Attempts[1].Start = 130 },
		"attempt past line":    func(j *Journey) { j.Attempts[1].End = 300 },
		"bad attempt outcome":  func(j *Journey) { j.Attempts[1].Outcome = "maybe" },
		"delivery not last":    func(j *Journey) { j.Attempts[0].Outcome = outcomeDelivered },
		"done != attempt end":  func(j *Journey) { j.DoneAt = 161 },
		"bad round":            func(j *Journey) { j.Rounds[0].Sense = 2 },
		"delivered sans proof": func(j *Journey) { j.Attempts = nil },
		"miss carries done": func(j *Journey) {
			j.Cause = CauseLostToChannel
			j.Attempts[1] = Attempt{Start: 150, End: 160, Outcome: outcomeLost}
		},
		"channel cause, collided tail": func(j *Journey) {
			j.Cause = CauseLostToChannel
			j.DoneAt, j.Delay = 0, 0
			j.Attempts[1] = Attempt{Start: 150, End: 160, Outcome: outcomeCollided}
		},
		"collision cause, lost tail": func(j *Journey) {
			j.Cause = CauseLostToCollision
			j.DoneAt, j.Delay = 0, 0
			j.Attempts[1] = Attempt{Start: 150, End: 160, Outcome: outcomeLost}
		},
		"never-won with attempts": func(j *Journey) {
			j.Cause = CauseNeverWonContention
			j.DoneAt, j.Delay = 0, 0
		},
		"expired with attempts": func(j *Journey) {
			j.Cause = CauseExpiredInQueue
			j.DoneAt, j.Delay = 0, 0
		},
	}
	for name, mutate := range mutations {
		j := validDelivered()
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: malformed journey accepted", name)
		}
	}
}

func TestAttributionReconcilesAndMerges(t *testing.T) {
	var a Attribution
	for i, c := range Causes() {
		for n := 0; n <= i; n++ {
			a.Add(c)
		}
	}
	if !a.Reconciles() {
		t.Fatalf("tallies do not reconcile: %+v", a)
	}
	if a.Total != 15 || a.Missed() != 14 || a.Count(CauseDelivered) != 1 {
		t.Fatalf("unexpected tallies: %+v", a)
	}
	b := a
	b.Merge(a)
	if b.Total != 2*a.Total || !b.Reconciles() {
		t.Fatalf("merge broke reconciliation: %+v", b)
	}
	if a.Count("nonsense") != 0 {
		t.Error("unknown cause counted")
	}
}

func TestNewTracerRejectsBadArgs(t *testing.T) {
	if _, err := NewTracer(0, nil, 1); err == nil {
		t.Error("zero links accepted")
	}
	if _, err := NewTracer(3, nil, 0); err == nil {
		t.Error("sample 0 accepted")
	}
	if _, err := NewTracer(3, nil, -4); err == nil {
		t.Error("negative sample accepted")
	}
}

// txEvent is one scripted transmission handed to the tracer.
type txEvent struct {
	link    int
	start   sim.Time
	end     sim.Time
	empty   bool
	outcome medium.Outcome
}

// closeInterval hands the tracer interval k's Debt record with the given
// post-update debts, then its EndInterval record.
func closeInterval(tr *Tracer, k int64, debts ...float64) {
	tr.Debt(k, 0, debts, 0, 0, 0)
	tr.EndInterval(k, 0, 0, 0, 0, nil)
}

func TestTracerEndToEnd(t *testing.T) {
	var out bytes.Buffer
	tr, err := NewTracer(3, &out, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Interval 0: link 0 gets 2 packets (first delivered after a loss, second
	// expires with a collided tail), link 1 gets 1 packet that only ever
	// contends, link 2 gets 1 packet with no activity at all.
	tr.BeginInterval(0, 0, 1000, []int{2, 1, 1}, perm.Permutation{2, 1, 3})
	tr.Backoff(0, 0, 0, 4)
	tr.ObserveSense(0, false)
	tr.ObserveFire(0, true)
	tr.Round(0, 0, 1, 9)
	tr.Sense(0, 0, 1, true)
	// The head-of-line packet follows link 0's own delivery count: the loss
	// and the delivery carry packet 0, the collision packet 1.
	for _, e := range []txEvent{
		{link: 0, start: 50, end: 150, outcome: medium.Lost},
		{link: 0, start: 200, end: 300, outcome: medium.Delivered},
		{link: 0, start: 400, end: 500, outcome: medium.Collided},
		{link: 2, start: 600, end: 700, empty: true, outcome: medium.Delivered},
	} {
		tr.Tx(0, medium.Transmission{Link: e.link, Start: e.start, End: e.end, Empty: e.empty}, e.outcome)
	}
	tr.Backoff(0, 0, 0, 1) // round after link 0's delivery — must not attach to packet 0
	tr.Swap(0, 0, 1, 1, 0, true)
	tr.Swap(0, 0, 2, 2, 0, false) // rejected: no annotation
	closeInterval(tr, 0, -0.5, 0.5, 1.5)

	if got := tr.Seen(); got != 4 {
		t.Fatalf("Seen = %d, want 4", got)
	}
	if got := tr.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	agg := tr.Attribution()
	if !agg.Reconciles() || agg.Total != 4 {
		t.Fatalf("attribution does not reconcile: %+v", agg)
	}
	want := Attribution{Total: 4, Delivered: 1, LostToCollision: 1, NeverWon: 1, ExpiredInQueue: 1}
	if agg != want {
		t.Fatalf("attribution = %+v, want %+v", agg, want)
	}
	if la, _ := tr.LinkAttribution(0); la.Delivered != 1 || la.LostToCollision != 1 {
		t.Fatalf("link 0 attribution = %+v", la)
	}
	if _, err := tr.LinkAttribution(9); err == nil {
		t.Error("out-of-range link accepted")
	}

	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := Decode(&out, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 4 {
		t.Fatalf("decoded %d journeys, want 4", len(js))
	}
	for i := range js {
		if err := js[i].Validate(); err != nil {
			t.Errorf("journey %d invalid: %v", i, err)
		}
	}
	// Stream order is (link, idx).
	first := js[0]
	if first.Link != 0 || first.Idx != 0 || first.Cause != CauseDelivered {
		t.Fatalf("journey 0 = %+v", first)
	}
	if first.Prio != 2 || first.Delay != 300 || len(first.Attempts) != 2 {
		t.Fatalf("journey 0 detail = %+v", first)
	}
	// Delivered packet carries only the rounds that preceded its delivery.
	if len(first.Rounds) != 1 {
		t.Fatalf("journey 0 rounds = %d, want 1", len(first.Rounds))
	}
	if second := js[1]; second.Cause != CauseLostToCollision || len(second.Rounds) != 2 {
		t.Fatalf("journey 1 = %+v", second)
	}
	if third := js[2]; third.Cause != CauseNeverWonContention || third.Rounds[0].Sense != 1 {
		t.Fatalf("journey 2 = %+v", third)
	}
	if fourth := js[3]; fourth.Cause != CauseExpiredInQueue || len(fourth.Rounds) != 0 {
		t.Fatalf("journey 3 = %+v", fourth)
	}

	pts, err := tr.Timeline(1)
	if err != nil || len(pts) != 1 {
		t.Fatalf("timeline(1) = %v, %v", pts, err)
	}
	if pts[0].Debt != 0.5 || !pts[0].SwapDown || pts[0].SwapUp {
		t.Fatalf("timeline(1)[0] = %+v", pts[0])
	}
	if pts0, _ := tr.Timeline(0); !pts0[0].SwapUp || pts0[0].Delivered != 1 || pts0[0].Lost != 1 || pts0[0].Collided != 1 {
		t.Fatalf("timeline(0)[0] = %+v", pts0[0])
	}
	if up, down, _ := tr.Swaps(0); up != 1 || down != 0 {
		t.Fatalf("swaps(0) = %d, %d", up, down)
	}
	if _, err := tr.Timeline(-1); err == nil {
		t.Error("negative link accepted by Timeline")
	}
	if _, _, err := tr.Swaps(3); err == nil {
		t.Error("out-of-range link accepted by Swaps")
	}
}

func TestTracerSampling(t *testing.T) {
	var out bytes.Buffer
	tr, err := NewTracer(2, &out, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 3 intervals × 2 links × 2 arrivals = 12 packets; stride 3 keeps 4.
	for k := int64(0); k < 3; k++ {
		start := sim.Time(k * 1000)
		tr.BeginInterval(k, start, start+1000, []int{2, 2}, nil)
		closeInterval(tr, k, 0, 0)
	}
	if tr.Seen() != 12 {
		t.Fatalf("Seen = %d, want 12", tr.Seen())
	}
	if tr.Count() != 4 {
		t.Fatalf("Count = %d, want 4", tr.Count())
	}
	js, err := Decode(&out, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range js {
		if j.Seq%3 != 0 {
			t.Errorf("unsampled seq %d recorded", j.Seq)
		}
		if j.Cause != CauseExpiredInQueue {
			t.Errorf("seq %d cause = %s", j.Seq, j.Cause)
		}
	}
	// Aggregates cover only sampled packets.
	if agg := tr.Attribution(); agg.Total != 4 || !agg.Reconciles() {
		t.Fatalf("attribution = %+v", agg)
	}
}

func TestTracerNilWriterKeepsAggregates(t *testing.T) {
	tr, err := NewTracer(1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.BeginInterval(0, 0, 100, []int{1}, nil)
	tr.Tx(0, medium.Transmission{Link: 0, Start: 10, End: 20}, medium.Delivered)
	closeInterval(tr, 0, -1)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 0 {
		t.Fatalf("Count = %d with nil writer", tr.Count())
	}
	if agg := tr.Attribution(); agg.Delivered != 1 || agg.Total != 1 {
		t.Fatalf("attribution = %+v", agg)
	}
}

func TestTimelineRingWrap(t *testing.T) {
	var out bytes.Buffer
	tr, err := NewTracer(1, &out, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < timelineCapacity+6; k++ {
		tr.BeginInterval(k, sim.Time(k*100), sim.Time(k*100+100), []int{0}, nil)
		closeInterval(tr, k, float64(k))
	}
	pts, err := tr.Timeline(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != timelineCapacity {
		t.Fatalf("retained %d points, want %d", len(pts), timelineCapacity)
	}
	for i, p := range pts {
		if want := int64(6 + i); p.K != want {
			t.Errorf("point %d: k = %d, want %d", i, p.K, want)
		}
	}
}

func TestTimelinePartialAndPositiveDebt(t *testing.T) {
	tl := newTimeline(8)
	tl.add(DebtPoint{K: 1, Debt: -2})
	tl.add(DebtPoint{K: 2, Debt: 3})
	pts := tl.Points()
	if len(pts) != 2 || tl.Len() != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].PositiveDebt() != 0 || pts[1].PositiveDebt() != 3 {
		t.Fatalf("positive-part projection wrong: %v", pts)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	_, err := Decode(strings.NewReader("{\"seq\":0}\nnot json\n"), false)
	if err == nil {
		t.Fatal("malformed stream accepted")
	}
}

// TestDecodeNamesTheLine checks that a broken second line of a journeys dump
// — the line after the schema header — is reported as line 2, with no
// journey decoded before it.
func TestDecodeNamesTheLine(t *testing.T) {
	header := telemetry.StreamHeader{Schema: telemetry.JourneyStreamSchema, Version: telemetry.JourneyStreamVersion}
	dump := string(header.MarshalLine()) + "not json\n"
	js, err := Decode(strings.NewReader(dump), false)
	if err == nil || len(js) != 0 || !strings.HasPrefix(err.Error(), "journey: decode journey at line 2: ") {
		t.Fatalf("decoded %d journeys, error %v; want line 2", len(js), err)
	}
}

func TestTracerJourneyPoolReuse(t *testing.T) {
	tr, err := NewTracer(1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		tr.BeginInterval(k, sim.Time(k*100), sim.Time(k*100+100), []int{2}, nil)
		tr.Backoff(k, 0, 0, 3)
		tr.Tx(k, medium.Transmission{Link: 0, Start: sim.Time(k*100 + 10), End: sim.Time(k*100 + 20)}, medium.Delivered)
		closeInterval(tr, k, 0)
	}
	agg := tr.Attribution()
	if agg.Total != 10 || agg.Delivered != 5 || agg.NeverWon != 5 {
		t.Fatalf("attribution after pooling = %+v", agg)
	}
	if !agg.Reconciles() {
		t.Fatal("pooled tallies do not reconcile")
	}
}
