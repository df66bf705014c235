package httpd

import (
	"encoding/json"
	"sync"
)

// This file is the SSE fan-out: one broadcaster holds every /v1/events
// subscriber, and publishing is strictly non-blocking. A subscriber that
// cannot keep up — a stalled TCP connection, a consumer busy rendering —
// loses events rather than back-pressuring the serving path: the stream
// carries advisory decoration decisions and periodic stats frames, both of
// which age badly, so delivering a stale backlog to a slow client would be
// worse than dropping it. Per-client and global drop counts are kept so the
// stats frames report the loss instead of hiding it.

// event is one framed server-sent event.
type event struct {
	name string
	id   uint64
	data []byte
}

// subscriber is one connected /v1/events client.
type subscriber struct {
	ch chan event

	mu      sync.Mutex
	dropped int // events lost to this client's full buffer
}

// drops returns how many events this subscriber has lost.
func (s *subscriber) drops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

func (s *subscriber) noteDrop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

// broadcaster fans events out to every live subscriber.
type broadcaster struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	seq     uint64
	dropped int
	closed  bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[*subscriber]struct{})}
}

// subscribe registers a new client. It returns nil once the broadcaster is
// closed — the server is draining and no new stream should start.
func (b *broadcaster) subscribe() *subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	s := &subscriber{ch: make(chan event, clientBuffer)}
	b.subs[s] = struct{}{}
	return s
}

// unsubscribe removes a client; safe to call after close.
func (b *broadcaster) unsubscribe(s *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, s)
}

// publish marshals payload and offers it to every subscriber without
// blocking: a full client buffer drops the event for that client only. It
// returns the event's sequence id (0 when closed or marshalling failed).
func (b *broadcaster) publish(name string, payload any) uint64 {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.seq++
	ev := event{name: name, id: b.seq, data: data}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.noteDrop()
			b.dropped++
		}
	}
	return b.seq
}

// close ends every stream: subscriber channels are closed (handlers see
// ok=false and return) and future subscribes are refused. Idempotent.
func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.ch)
	}
	b.subs = make(map[*subscriber]struct{})
}

// counts reports the live subscriber count and total events dropped to slow
// clients.
func (b *broadcaster) counts() (subscribers, dropped int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs), b.dropped
}
