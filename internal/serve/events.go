package serve

import (
	"context"
	"encoding/json"
	"sync"
)

// Event is one entry of a job's progress stream. The journal tap feeds it:
// each checkpoint record the analysis durably appends (or replays on resume)
// becomes one event, bracketed by lifecycle events from the queue.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"` // queued, started, iter, final, done, failed, cached
	Data json.RawMessage `json:"data,omitempty"`
}

// eventLog is an append-only per-job event history with broadcast: readers
// replay from any sequence number and then follow live appends until the log
// closes (job reached a terminal state).
type eventLog struct {
	mu     sync.Mutex
	events []Event
	closed bool
	wake   chan struct{} // closed and replaced on every append/close
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append adds one event; data is marshaled (nil stays empty). Appending to a
// closed log is a no-op (a late journal replay after a failure races no one).
func (l *eventLog) append(typ string, data any) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			b, _ = json.Marshal(map[string]string{"marshal_error": err.Error()})
		}
		raw = b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, Event{Seq: len(l.events), Type: typ, Data: raw})
	close(l.wake)
	l.wake = make(chan struct{})
}

// closeLog marks the stream complete and wakes all followers.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// next returns the events at sequence >= from, whether the log is closed,
// and the channel that signals the next change (valid until then).
func (l *eventLog) next(from int) (evs []Event, closed bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < len(l.events) {
		evs = append(evs, l.events[from:]...)
	}
	return evs, l.closed, l.wake
}

// follow streams events from sequence from, invoking emit for each, until
// the log closes or ctx is done. It returns the next unread sequence.
func (l *eventLog) follow(ctx context.Context, from int, emit func(Event) error) (int, error) {
	for {
		evs, closed, wake := l.next(from)
		for _, ev := range evs {
			if err := emit(ev); err != nil {
				return from, err
			}
			from = ev.Seq + 1
		}
		if closed {
			return from, nil
		}
		select {
		case <-ctx.Done():
			return from, ctx.Err()
		case <-wake:
		}
	}
}
