package obs

import (
	"sync"
	"sync/atomic"

	"rtmac/internal/telemetry"
)

// Broker fans the telemetry event stream out to SSE subscribers. It
// implements telemetry.Sink, so it can be attached anywhere a JSONL writer
// can. With zero subscribers Emit is a single atomic load and returns without
// allocating, which keeps the simulator's interval hot path free when nobody
// is watching; events are serialized to JSON only when at least one
// subscriber exists, so the broker never retains the caller's payload.
//
// Slow subscribers lose events rather than stalling the simulation: each
// subscription has a bounded buffer and Emit drops on a full channel.
type Broker struct {
	nsubs atomic.Int32
	mu    sync.Mutex
	subs  map[chan []byte]struct{}
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[chan []byte]struct{})}
}

// Emit implements telemetry.Sink.
func (b *Broker) Emit(ev telemetry.Event) {
	if b.nsubs.Load() == 0 {
		return
	}
	line, err := telemetry.AppendJSON(nil, ev)
	if err != nil {
		return
	}
	data := line[:len(line)-1] // SSE frames the event; drop the newline
	b.mu.Lock()
	for ch := range b.subs {
		select {
		case ch <- data:
		default: // subscriber too slow; drop rather than block the sim
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a new subscriber with the given channel buffer and
// returns its event channel plus a cancel function. Cancel is idempotent and
// must be called when the subscriber goes away.
func (b *Broker) Subscribe(buf int) (<-chan []byte, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan []byte, buf)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	b.nsubs.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, ch)
			b.mu.Unlock()
			b.nsubs.Add(-1)
		})
	}
	return ch, cancel
}

// Subscribers returns the current subscriber count.
func (b *Broker) Subscribers() int { return int(b.nsubs.Load()) }
