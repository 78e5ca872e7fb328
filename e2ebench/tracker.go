package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// tracker is the delivery oracle and the completion bookkeeping of one
// run. Publishers register each event before sending it; delivering
// goroutines ("lanes") report every decoded delivery. Each lane owns the
// subscriptions it delivers for, so per-subscription state needs no lock.
type tracker struct {
	in    *inputs
	epoch time.Time

	// Per subscription handle: filter index + 1, with stableBit for the
	// stable population; 0 means no subscription was ever registered.
	subs    []atomic.Int64
	lastSeq []int64 // last seq delivered per handle, written by its lane

	// Per event seq.
	start     []int64        // latency origin, ns since epoch
	remaining []atomic.Int32 // stable deliveries still due, plus one for the reply
	published atomic.Int64   // events registered so far (the next seq)
	completed atomic.Int64
	wake      chan struct{} // signalled on every completion, for the closed loop

	recording atomic.Bool // open loop: keep delivery latencies

	// Open-loop windows: latencies are grouped by the window their
	// request's latency origin falls in. Set before recording turns on.
	winStart, winLen int64
	wins             int
	lanes            []*lane

	delivered  atomic.Int64 // every delivery, stable or churn
	unexpected atomic.Int64
	duplicate  atomic.Int64
	mismatched atomic.Int64 // publish replies counting more than the oracle allows
	short      atomic.Int64 // publish replies counting fewer: legal only beside drops
	errMu      sync.Mutex
	firstErr   error

	trace *tracer // nil when untraced
}

// stableBit marks a stable subscription in tracker.subs.
const stableBit = 1 << 40

// lane is one delivering goroutine's private sample buffer.
type lane struct {
	lat []hist // open-loop delivery latencies per window
}

func newTracker(in *inputs, maxSubs, maxEvents, lanes int) *tracker {
	t := &tracker{
		in:        in,
		subs:      make([]atomic.Int64, maxSubs+1),
		lastSeq:   make([]int64, maxSubs+1),
		start:     make([]int64, maxEvents),
		remaining: make([]atomic.Int32, maxEvents),
		wake:      make(chan struct{}, 1),
	}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{})
	}
	t.reset()
	return t
}

// reset forgets every subscription and event, for a fresh set-up.
func (t *tracker) reset() {
	for i := range t.subs {
		t.subs[i].Store(0)
		t.lastSeq[i] = -1
	}
	t.published.Store(0)
	t.completed.Store(0)
	t.epoch = time.Now()
}

func (t *tracker) now() int64 { return int64(time.Since(t.epoch)) }

// beginWindows starts recording open-loop latencies in n windows that
// together span d from now.
func (t *tracker) beginWindows(n int, d time.Duration) {
	t.winStart, t.winLen, t.wins = t.now(), int64(d)/int64(n), n
	for _, l := range t.lanes {
		l.lat = make([]hist, n)
	}
	t.recording.Store(true)
}

// window returns the open-loop window of latency origin start.
func (t *tracker) window(start int64) int {
	return min(max(int((start-t.winStart)/t.winLen), 0), t.wins-1)
}

func (t *tracker) fail(format string, args ...any) {
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf(format, args...)
	}
	t.errMu.Unlock()
}

func (t *tracker) err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}

// register records subscription handle h for filter f before it is
// requested, so a delivery that overtakes the reply is still known.
func (t *tracker) register(h uint64, f int, stable bool) {
	v := int64(f + 1)
	if stable {
		v |= stableBit
	}
	t.subs[h].Store(v)
}

// next registers the next n events with latency origin start and returns
// the first seq, or -1 when the event table is full.
func (t *tracker) next(n int, start int64) int64 {
	seq := t.published.Load()
	if seq+int64(n) > int64(len(t.start)) {
		return -1
	}
	for i := seq; i < seq+int64(n); i++ {
		t.start[i] = start
		t.remaining[i].Store(int32(t.in.expected(i)) + 1)
	}
	t.published.Store(seq + int64(n))
	return seq
}

// replied records the publish reply for events seq.., checking its counts
// against the oracle. counts is nil when the publish path reports none.
// churnLive bounds how many churn subscriptions may add to a count.
func (t *tracker) replied(seq int64, counts []int, churnLive int) {
	for i, n := range counts {
		want := t.in.expected(seq + int64(i))
		if n > want+churnLive {
			t.mismatched.Add(1)
			t.fail("publish reply for seq %d counted %d deliveries, oracle expects %d (+%d churn)",
				seq+int64(i), n, want, churnLive)
		}
		if n < want {
			t.short.Add(1)
		}
	}
	n := len(counts)
	if counts == nil {
		n = 1
	}
	for i := int64(0); i < int64(n); i++ {
		t.done(seq + i)
	}
}

// deliver checks one delivery of event seq to handle h and accounts it.
func (t *tracker) deliver(l *lane, h uint64, seq int64, now int64) {
	t.delivered.Add(1)
	if h >= uint64(len(t.subs)) || seq < 0 || seq >= t.published.Load() {
		t.unexpected.Add(1)
		t.fail("delivery of seq %d to unknown handle %d", seq, h)
		return
	}
	v := t.subs[h].Load()
	if v == 0 {
		t.unexpected.Add(1)
		t.fail("delivery of seq %d to unregistered handle %d", seq, h)
		return
	}
	f := int(v&(stableBit-1)) - 1
	if !t.in.matches(seq, f) {
		t.unexpected.Add(1)
		t.fail("seq %d delivered to handle %d whose filter %s does not match", seq, h, t.in.texts[f])
		return
	}
	if seq <= t.lastSeq[h] {
		t.duplicate.Add(1)
		t.fail("seq %d delivered to handle %d again or out of order (last %d)", seq, h, t.lastSeq[h])
		return
	}
	t.lastSeq[h] = seq
	if t.recording.Load() {
		l.lat[t.window(t.start[seq])].add(now - t.start[seq])
	}
	if v&stableBit != 0 {
		t.done(seq)
	}
}

// done counts down one outstanding part of event seq.
func (t *tracker) done(seq int64) {
	if t.remaining[seq].Add(-1) != 0 {
		return
	}
	t.completed.Add(1)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// waitWindow blocks until fewer than window events beyond the lost ones
// are in flight, and reports false if stop closes first.
func (t *tracker) waitWindow(window int, lost int64, stop <-chan struct{}) bool {
	for t.published.Load()-t.completed.Load()-lost >= int64(window) {
		select {
		case <-t.wake:
		case <-stop:
			return false
		}
	}
	return true
}

// drain waits until every published event completed or the timeout
// passes, and returns how many are still incomplete.
func (t *tracker) drain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		left := t.published.Load() - t.completed.Load()
		if left == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(time.Millisecond)
	}
}

// missing returns the stable deliveries that never arrived, counting each
// incomplete event's outstanding deliveries (its reply has been counted).
func (t *tracker) missing() int64 {
	var n int64
	for seq := int64(0); seq < t.published.Load(); seq++ {
		if r := t.remaining[seq].Load(); r > 0 {
			n += int64(r)
		}
	}
	return n
}

// expectedDeliveries sums the oracle's stable deliveries over seqs [from, to).
func (t *tracker) expectedDeliveries(from, to int64) int64 {
	var n int64
	for seq := from; seq < to; seq++ {
		n += int64(t.in.expected(seq))
	}
	return n
}
