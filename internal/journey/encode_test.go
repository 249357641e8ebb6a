package journey

import (
	"bytes"
	"encoding/json"
	"testing"

	"rtmac/internal/sim"
)

// FuzzAppendJourneyJSON holds the tracer's journey encoder to encoding/json:
// for any journey it must produce exactly json.Marshal's bytes and a newline,
// including the omitempty rules for prio, done, delay, fired, started and
// the rounds and attempts lists (left out when nil or empty). The journey
// gets nrounds%4 rounds and nattempts%4 attempts built from the scalar
// arguments; a count of 4 gives an empty, non-nil list.
func FuzzAppendJourneyJSON(f *testing.F) {
	ls := string(rune(0x2028))
	f.Add(int64(7), int64(3), 2, 0, int64(6000), int64(8000), 2, CauseDelivered,
		int64(6300), int64(300), 4, 1, true, true, uint8(2), int64(6100), int64(6300), outcomeDelivered, uint8(1))
	f.Add(int64(0), int64(0), 0, 0, int64(0), int64(1), 0, CauseExpiredInQueue,
		int64(0), int64(0), 0, -1, false, false, uint8(0), int64(0), int64(0), "", uint8(0))
	f.Add(int64(-1), int64(-2), -3, -4, int64(-5), int64(-6), -7, "<cause>&"+ls,
		int64(-8), int64(-9), -10, 0, false, true, uint8(4), int64(-11), int64(-12), "\xff\"\\\n", uint8(4))
	f.Fuzz(func(t *testing.T, seq, k int64, link, idx int, arrived, deadline int64, prio int, cause string,
		done, delay int64, backoff, sense int, fired, started bool, nrounds uint8,
		start, end int64, outcome string, nattempts uint8) {
		j := &Journey{
			Seq: seq, K: k, Link: link, Idx: idx,
			Arrived: sim.Time(arrived), Deadline: sim.Time(deadline), Prio: prio, Cause: cause,
			DoneAt: sim.Time(done), Delay: sim.Time(delay),
		}
		if nrounds%8 >= 4 {
			j.Rounds = []Round{}
		}
		for i := 0; i < int(nrounds%4); i++ {
			j.Rounds = append(j.Rounds, Round{Backoff: backoff + i, Sense: sense, Fired: fired != (i%2 == 1), Started: started})
		}
		if nattempts%8 >= 4 {
			j.Attempts = []Attempt{}
		}
		for i := 0; i < int(nattempts%4); i++ {
			j.Attempts = append(j.Attempts, Attempt{Start: sim.Time(start) + sim.Time(i), End: sim.Time(end), Outcome: outcome})
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendJSON(nil, j); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON differs from json.Marshal:\n got: %q\nwant: %q", got, want)
		}
	})
}
