package netoverlay

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// slowReadConn delays every Read by delay once armed: a receiving end that
// holds a frame in its connection for longer than Settle's quiet window.
type slowReadConn struct {
	net.Conn
	delay time.Duration
	armed atomic.Bool
}

func (c *slowReadConn) Read(p []byte) (int, error) {
	if c.armed.Load() {
		time.Sleep(c.delay)
	}
	return c.Conn.Read(p)
}

// TestSettleWaitsForDelayedRead links two brokers over a pipe whose
// receiving end delays its reads ten times longer than the idle window
// handed to Settle. No broker shows activity while the event sits in the
// connection, so a quiet-window Settle returns before the delivery; an
// exact one waits until the far broker has handled what the near one sent.
func TestSettleWaitsForDelayedRead(t *testing.T) {
	const idle = 20 * time.Millisecond
	a := NewBroker(Options{NodeID: 1, Logf: t.Logf})
	defer a.Close()
	b := NewBroker(Options{NodeID: 2, Logf: t.Logf})
	defer b.Close()
	ca, cb := net.Pipe()
	slow := &slowReadConn{Conn: cb, delay: 10 * idle}
	errc := make(chan error, 1)
	go func() {
		id, err := b.handshake(slow, false)
		if err == nil {
			err = b.attach(slow, id)
		}
		errc <- err
	}()
	id, err := a.handshake(ca, true)
	if err == nil {
		err = a.attach(ca, id)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	var got atomic.Int64
	if _, err := b.Subscribe(boolexpr.Pred("x", predicate.Gt, int64(0)), func(event.Event) {
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	Settle(idle, a, b)
	slow.armed.Store(true)
	if err := a.Publish(event.New().Set("x", int64(1))); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	Settle(idle, a, b)
	if n := got.Load(); n != 1 {
		t.Fatalf("Settle returned after %v with %d deliveries, want 1: the event was still in the link",
			time.Since(start).Round(time.Millisecond), n)
	}
}

// TestSettleCountsUnparseableFilter forwards a filter the far broker cannot
// parse. The far broker drops it as an anomaly without ever handing it to
// its broker goroutine, so Settle must count the drop as handled or wait
// for the message forever.
func TestSettleCountsUnparseableFilter(t *testing.T) {
	brokers := pipeLine(t, 2, Options{})
	bad := boolexpr.Pred("not an attribute", predicate.Eq, int64(1))
	onBroker(t, brokers[0], func() {
		// Straight into the router: Subscribe would refuse the filter.
		if _, err := brokers[0].rt.HandleSubscribe(1, bad, func(event.Event) {}, -1); err != nil {
			t.Error(err)
		}
	})
	settled := make(chan struct{})
	go func() {
		Settle(settleIdle, brokers...)
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("Settle never counted the dropped filter as handled")
	}
	if st := brokers[1].Stats(); st.InstallErrors != 1 {
		t.Errorf("far InstallErrors = %d, want 1", st.InstallErrors)
	}
}

// TestSettleWindowOnlyForLinksLeavingTheSet checks where the idle window
// applies: a Settle over both ends of a link needs no quiet window, even a
// long one, while a Settle over one end must wait it out, because the link
// leaves the set and its far side's work is invisible.
func TestSettleWindowOnlyForLinksLeavingTheSet(t *testing.T) {
	brokers := pipeLine(t, 2, Options{})
	var got atomic.Int64
	if _, err := brokers[1].Subscribe(boolexpr.Pred("x", predicate.Gt, int64(0)), func(event.Event) {
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const long = 10 * time.Second
	start := time.Now()
	Settle(long, brokers...)
	if d := time.Since(start); d >= long {
		t.Errorf("Settle over both ends took %v: it waited out the window", d)
	}

	const idle = 50 * time.Millisecond
	if err := brokers[0].Publish(event.New().Set("x", int64(1))); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	Settle(idle, brokers[0])
	if d := time.Since(start); d < idle {
		t.Errorf("Settle over one end returned after %v, inside the %v window", d, idle)
	}
	Settle(idle, brokers...)
	if got.Load() != 1 {
		t.Errorf("delivered = %d, want 1", got.Load())
	}
}
