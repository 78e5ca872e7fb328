package netoverlay

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// assertNoGoroutineLeak fails the test if the goroutine count has not
// returned to its pre-network level (with slack for runtime helpers).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	const slack = 2
	if n := waitNumGoroutine(before+slack, 5*time.Second); n > before+slack {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after close\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

func closeAll(brokers []*Broker) {
	for _, b := range brokers {
		b.Close()
	}
}

// TestRegistrationStormInboxOne is the deadlock regression test for the
// inbox cycle: with InboxSize 1 on a line, any forwarding design where a
// broker goroutine blocks sending into a neighbour's inbox wedges
// immediately — broker A mid-send into B's full inbox while B is mid-send
// into A's. The spill-queue forwarding must survive an unthrottled
// registration storm (plus unsubscribes and publishes, which ride the same
// links) without any settling, and leave a correct routing state.
func TestRegistrationStormInboxOne(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		name := "plain"
		if coverOn {
			name = "cover"
		}
		t.Run(name, func(t *testing.T) {
			goroutinesBefore := runtime.NumGoroutine()
			const (
				nodes   = 8
				storms  = 4
				perGoro = 300
			)
			brokers := pipeLine(t, nodes, Options{InboxSize: 1, Cover: coverOn})

			// The storm must finish well before the suite timeout; run it
			// under a watchdog so a deadlock reports as a failure here, not
			// as an opaque test-binary timeout panic.
			done := make(chan struct{})
			type kept struct {
				ref SubRef
				at  int
			}
			survivors := make([][]kept, storms)
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for g := 0; g < storms; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < perGoro; i++ {
							at := (g + i) % nodes
							ref, err := brokers[at].Subscribe(band(g%3, 10*(1+i%12)), func(event.Event) {})
							if err != nil {
								t.Error(err)
								return
							}
							if i%3 == 0 {
								if err := brokers[at].Unsubscribe(ref); err != nil {
									t.Error(err)
									return
								}
							} else {
								survivors[g] = append(survivors[g], kept{ref: ref, at: at})
							}
							if i%7 == 0 {
								if err := brokers[at].Publish(bandEvent(g%3, 5)); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				Settle(settleIdle, brokers...)
			}()
			select {
			case <-done:
			case <-time.After(90 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("registration storm deadlocked; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
			}

			// The storm's survivors are fully routed. Without covering every
			// broker knows every live subscription; with it a broker at
			// least holds the survivors homed at itself (remote knowledge is
			// legitimately pruned by coverers).
			live := 0
			for _, ks := range survivors {
				live += len(ks)
			}
			for _, ks := range survivors {
				for _, k := range ks {
					onBroker(t, brokers[k.at], func() {
						if !brokers[k.at].rt.HasRoute(k.ref.id) {
							t.Errorf("broker %d lost surviving subscription %d", k.at, k.ref.id)
						}
					})
				}
			}
			for i, b := range brokers {
				onBroker(t, b, func() {
					got := b.rt.NumRoutes()
					if !coverOn && got != live {
						t.Errorf("broker %d routes = %d, want %d", i, got, live)
					}
					if coverOn && got > live {
						t.Errorf("broker %d routes = %d > %d live", i, got, live)
					}
				})
			}
			st := total(brokers)
			if coverOn && st.CoverSuppressed == 0 {
				t.Error("covering storm never suppressed a forward; the test lost its teeth")
			}
			if st.HopDropped != 0 || st.InstallErrors != 0 {
				t.Errorf("storm dropped or failed messages: %+v", st)
			}
			closeAll(brokers)
			assertNoGoroutineLeak(t, goroutinesBefore)
		})
	}
}

// TestSettleReturnsAfterClose pins Settle's liveness: while a handler is
// wedged with messages queued behind it Settle must not return, and once
// the brokers close it must — messages queued at Close are discarded, not
// processed, so waiting on them would spin forever.
func TestSettleReturnsAfterClose(t *testing.T) {
	brokers := pipeLine(t, 4, Options{InboxSize: 1})
	// Park messages in the network: a slow handler wedges broker 3's
	// goroutine while more publishes pile into inboxes and spill queues.
	block := make(chan struct{})
	var once sync.Once
	if _, err := brokers[3].Subscribe(pred("p", predicate.Gt, 0), func(event.Event) {
		once.Do(func() { <-block })
	}); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	for i := 0; i < 64; i++ {
		if err := brokers[0].Publish(event.New().Set("p", 1)); err != nil {
			t.Fatal(err)
		}
	}

	settled := make(chan struct{})
	go func() {
		Settle(settleIdle, brokers...)
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("Settle returned while messages were wedged in flight")
	case <-time.After(10 * settleIdle):
	}
	close(block) // free the handler so Close can join the broker goroutine
	closeAll(brokers)
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("Settle still blocked after Close")
	}
	Settle(settleIdle, brokers...) // post-Close Settle returns immediately too
}

// TestCloseReleasesGoroutines asserts every broker, reader, writer and
// ping goroutine exits on Close even with traffic still queued.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	const nodes = 15
	brokers := pipeTree(t, nodes, 2, Options{})
	for i := 0; i < 20; i++ {
		if _, err := brokers[i%nodes].Subscribe(band(i%3, 100), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := brokers[i%nodes].Publish(bandEvent(i%3, 5)); err != nil {
			t.Fatal(err)
		}
	}
	closeAll(brokers) // no Settle: close with work still in flight
	assertNoGoroutineLeak(t, before)
}

// TestLinkHandshakeVetoes checks that pipe links go through the same
// handshake vetoes as TCP links: no self-links, no second link to a peer.
func TestLinkHandshakeVetoes(t *testing.T) {
	a := NewBroker(Options{NodeID: 1, Logf: t.Logf})
	defer a.Close()
	twin := NewBroker(Options{NodeID: 1, Logf: t.Logf})
	defer twin.Close()
	b := NewBroker(Options{NodeID: 2, Logf: t.Logf})
	defer b.Close()
	if err := Link(a, twin); !errors.Is(err, ErrHandshake) {
		t.Errorf("self-ID link err = %v, want ErrHandshake", err)
	}
	if err := Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := Link(b, a); !errors.Is(err, ErrHandshake) {
		t.Errorf("duplicate link err = %v, want ErrHandshake", err)
	}
	Settle(settleIdle, a, b)
	if pa, pb := a.Stats().Peers, b.Stats().Peers; pa != 1 || pb != 1 {
		t.Errorf("peers after vetoed links = %d/%d, want 1/1", pa, pb)
	}
}

// TestDuplicateFloodWarnsOfCycle closes a triangle, which no handshake can
// veto (every link joins two distinct brokers once), and checks that the
// subscription flood arriving twice is surfaced as a cycle warning through
// Options.OnError and Stats.InstallErrors.
func TestDuplicateFloodWarnsOfCycle(t *testing.T) {
	var mu sync.Mutex
	var warnings []string
	var anomalies atomic.Int64
	opts := Options{OnError: func(err error) {
		anomalies.Add(1)
		mu.Lock()
		warnings = append(warnings, err.Error())
		mu.Unlock()
	}}
	brokers := pipeLine(t, 3, opts)
	if err := Link(brokers[2], brokers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := brokers[0].Subscribe(band(1, 100), func(event.Event) {}); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if anomalies.Load() == 0 {
		t.Fatal("duplicate flood on a cycle raised no warning")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range warnings {
		if !strings.Contains(w, "cycle") {
			t.Errorf("warning %q does not name the cycle", w)
		}
	}
	if st := total(brokers); st.InstallErrors != uint64(anomalies.Load()) {
		t.Errorf("InstallErrors = %d, OnError calls = %d", st.InstallErrors, anomalies.Load())
	}
}
