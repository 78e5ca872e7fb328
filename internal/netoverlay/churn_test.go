package netoverlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"noncanon/internal/event"
)

// TestChurnStormExactlyOnce subjects a pipe-linked tree to a
// subscribe/unsubscribe storm interleaved with a publish storm from
// multiple goroutines and asserts the core routing invariant: subscribers
// that are stable for the whole run receive every matching event exactly
// once — never zero, never twice — regardless of the churn around them.
// Run under -race this also pins the thread-safety of the API surface.
// Both the plain and the covering configuration are exercised.
func TestChurnStormExactlyOnce(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		cover bool
	}{
		{name: "plain", cover: false},
		{name: "cover", cover: true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			const (
				nodes      = 9
				stableSubs = 6
				events     = 400
				churners   = 3
				churnIters = 120
			)
			brokers := pipeTree(t, nodes, 2, Options{Cover: cfg.cover, InboxSize: 4096})

			// Stable subscribers: one broad band per category so every event
			// in that category matches; delivery counts are per event seq.
			type counterMap struct {
				mu   sync.Mutex
				seen map[int64]int
			}
			counters := make([]*counterMap, stableSubs)
			for i := range counters {
				cm := &counterMap{seen: map[int64]int{}}
				counters[i] = cm
				if _, err := brokers[i%nodes].Subscribe(band(i%3, 1000), func(ev event.Event) {
					v, _ := ev.Get("seq")
					cm.mu.Lock()
					cm.seen[v.Int()]++
					cm.mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
			}
			Settle(settleIdle, brokers...)

			// Storm: churners cycle volatile subscriptions (covering and
			// covered ones) while a publisher injects every event once.
			var wg sync.WaitGroup
			var churnOps atomic.Int64
			for c := 0; c < churners; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c) + 100))
					for i := 0; i < churnIters; i++ {
						b := brokers[rng.Intn(nodes)]
						ref, err := b.Subscribe(band(rng.Intn(3), 10*(1+rng.Intn(12))), func(event.Event) {})
						if err != nil {
							t.Error(err)
							return
						}
						if err := b.Unsubscribe(ref); err != nil {
							t.Error(err)
							return
						}
						churnOps.Add(2)
					}
				}(c)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				for seq := int64(1); seq <= events; seq++ {
					ev := bandEvent(int(seq)%3, rng.Intn(900)).Set("seq", seq)
					if err := brokers[rng.Intn(nodes)].Publish(ev); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			Settle(settleIdle, brokers...)

			// Every stable subscriber must have seen each of its category's
			// events exactly once.
			for i, cm := range counters {
				cat := i % 3
				cm.mu.Lock()
				for seq := int64(1); seq <= events; seq++ {
					want := 0
					if int(seq)%3 == cat {
						want = 1
					}
					if got := cm.seen[seq]; got != want {
						cm.mu.Unlock()
						t.Fatalf("stable subscriber %d: event %d delivered %d times, want %d (churn ops: %d)",
							i, seq, got, want, churnOps.Load())
					}
				}
				cm.mu.Unlock()
			}
			if churnOps.Load() == 0 {
				t.Error("no churn happened; the storm lost its teeth")
			}
		})
	}
}

// TestChurnUnsubscribeDuringFlood interleaves an unsubscribe directly
// behind its own subscribe (no settling) many times: the network must end
// with no routes left anywhere and deliver nothing afterwards.
func TestChurnUnsubscribeDuringFlood(t *testing.T) {
	for _, coverOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("cover=%v", coverOn), func(t *testing.T) {
			brokers := pipeLine(t, 6, Options{Cover: coverOn})
			var delivered atomic.Int64
			for i := 0; i < 200; i++ {
				ref, err := brokers[0].Subscribe(band(1, 100+i), func(event.Event) {
					delivered.Add(1)
				})
				if err != nil {
					t.Fatal(err)
				}
				// Immediately retract while the flood may still be in flight.
				if err := brokers[0].Unsubscribe(ref); err != nil {
					t.Fatal(err)
				}
			}
			Settle(settleIdle, brokers...)
			for i, b := range brokers {
				onBroker(t, b, func() {
					if n := b.rt.NumRoutes(); n != 0 {
						t.Errorf("broker %d still holds %d routes after churn", i, n)
					}
					if n := b.eng.NumSubscriptions(); n != 0 {
						t.Errorf("broker %d engine still holds %d subscriptions", i, n)
					}
					for l := 0; coverOn && l < b.rt.NumLinks(); l++ {
						fwd, covered, coverers := b.rt.CoverState(l)
						if fwd != 0 || covered != 0 || coverers != 0 {
							t.Errorf("broker %d link %d covering state leaked: fwd=%d coveredBy=%d coverees=%d",
								i, l, fwd, covered, coverers)
						}
					}
				})
			}
			if err := brokers[5].Publish(bandEvent(1, 5)); err != nil {
				t.Fatal(err)
			}
			Settle(settleIdle, brokers...)
			if delivered.Load() != 0 {
				t.Errorf("delivered = %d events to unsubscribed handlers", delivered.Load())
			}
		})
	}
}
