package netoverlay

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
)

// The tests in this file run the in-process overlay: brokers of one
// process joined by Link over net.Pipe.

func pred(attr string, op predicate.Op, v any) boolexpr.Expr {
	return boolexpr.Pred(attr, op, v)
}

func TestLineEndToEndDelivery(t *testing.T) {
	brokers := pipeLine(t, 5, Options{})
	var got atomic.Int64
	// Subscribe at one end, publish at the other.
	if _, err := brokers[4].Subscribe(pred("price", predicate.Gt, 100), func(ev event.Event) {
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if err := brokers[0].Publish(event.New().Set("price", 150)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if got.Load() != 1 {
		t.Fatalf("delivered = %d, want 1", got.Load())
	}
	st := total(brokers)
	// The event crossed exactly 4 links.
	if st.Forwarded != 4 {
		t.Errorf("Forwarded = %d, want 4", st.Forwarded)
	}
	// Non-matching event is filtered at the publish broker: no forwards.
	if err := brokers[0].Publish(event.New().Set("price", 50)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if st2 := total(brokers); st2.Forwarded != st.Forwarded {
		t.Errorf("non-matching event was forwarded: %d -> %d", st.Forwarded, st2.Forwarded)
	}
	if got.Load() != 1 {
		t.Errorf("delivered = %d after non-matching publish", got.Load())
	}
}

func TestLocalDeliveryNoForwarding(t *testing.T) {
	brokers := pipeStar(t, 4, Options{})
	var got atomic.Int64
	if _, err := brokers[2].Subscribe(pred("a", predicate.Eq, 1), func(event.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	// Publish at the subscriber's own broker.
	if err := brokers[2].Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if got.Load() != 1 {
		t.Fatalf("delivered = %d", got.Load())
	}
	if st := total(brokers); st.Forwarded != 0 {
		t.Errorf("local publish forwarded %d copies", st.Forwarded)
	}
}

func TestStarFanoutToMultipleSubscribers(t *testing.T) {
	brokers := pipeStar(t, 6, Options{})
	var mu sync.Mutex
	gotBy := map[int]int{}
	for _, at := range []int{1, 2, 3} {
		if _, err := brokers[at].Subscribe(pred("topic", predicate.Eq, "x"), func(event.Event) {
			mu.Lock()
			gotBy[at]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Broker 4 subscribes to something else.
	var other atomic.Int64
	if _, err := brokers[4].Subscribe(pred("topic", predicate.Eq, "y"), func(event.Event) { other.Add(1) }); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if err := brokers[5].Publish(event.New().Set("topic", "x")); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	mu.Lock()
	defer mu.Unlock()
	for _, at := range []int{1, 2, 3} {
		if gotBy[at] != 1 {
			t.Errorf("broker %d delivered %d, want 1", at, gotBy[at])
		}
	}
	if other.Load() != 0 {
		t.Errorf("topic-y subscriber got %d events", other.Load())
	}
	// 5→hub, hub→{1,2,3}: 4 link crossings, not 5 (broker 4 pruned).
	if st := total(brokers); st.Forwarded != 4 {
		t.Errorf("Forwarded = %d, want 4 (pruned fanout)", st.Forwarded)
	}
}

func TestUnsubscribeNetworkWide(t *testing.T) {
	brokers := pipeLine(t, 3, Options{})
	var got atomic.Int64
	ref, err := brokers[2].Subscribe(pred("a", predicate.Gt, 0), func(event.Event) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if err := brokers[0].Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if got.Load() != 1 {
		t.Fatalf("delivered = %d", got.Load())
	}
	if err := brokers[2].Unsubscribe(ref); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	before := total(brokers).Forwarded
	if err := brokers[0].Publish(event.New().Set("a", 1)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if got.Load() != 1 {
		t.Errorf("delivered after unsubscribe = %d", got.Load())
	}
	if after := total(brokers).Forwarded; after != before {
		t.Errorf("event forwarded after unsubscribe: %d -> %d", before, after)
	}
	if err := brokers[2].Unsubscribe(ref); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("double unsubscribe err = %v", err)
	}
}

func TestComplexBooleanSubscriptionAcrossOverlay(t *testing.T) {
	brokers := pipeTree(t, 7, 2, Options{})
	// The paper's Fig. 1 subscription registered at a leaf.
	expr := boolexpr.NewAnd(
		boolexpr.NewOr(pred("a", predicate.Gt, 10), pred("a", predicate.Le, 5), pred("b", predicate.Eq, 1)),
		boolexpr.NewOr(pred("c", predicate.Le, 20), pred("c", predicate.Eq, 30), pred("d", predicate.Eq, 5)),
	)
	var got atomic.Int64
	if _, err := brokers[6].Subscribe(expr, func(event.Event) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	for _, p := range []struct {
		at int
		ev event.Event
	}{
		{3, event.New().Set("a", 3).Set("c", 30)}, // matches
		{3, event.New().Set("a", 7).Set("c", 30)}, // left OR fails
		{5, event.New().Set("b", 1).Set("d", 5)},  // matches
	} {
		if err := brokers[p.at].Publish(p.ev); err != nil {
			t.Fatal(err)
		}
	}
	Settle(settleIdle, brokers...)
	if got.Load() != 2 {
		t.Errorf("delivered = %d, want 2", got.Load())
	}
}

func TestAPIValidation(t *testing.T) {
	brokers := pipeLine(t, 2, Options{})
	b := brokers[0]
	if _, err := b.Subscribe(nil, func(event.Event) {}); err == nil {
		t.Error("nil expr accepted")
	}
	if _, err := b.Subscribe(pred("a", predicate.Eq, 1), nil); err == nil {
		t.Error("nil handler accepted")
	}
	// Uncompilable subscription is rejected synchronously.
	xs := make([]boolexpr.Expr, 256)
	for i := range xs {
		xs[i] = pred("a", predicate.Eq, i)
	}
	if _, err := b.Subscribe(boolexpr.And{Xs: xs}, func(event.Event) {}); err == nil {
		t.Error("uncompilable subscription accepted")
	}
	b.Close()
	if _, err := b.Subscribe(pred("a", predicate.Eq, 1), func(event.Event) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after close err = %v", err)
	}
	if err := b.Publish(event.New()); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close err = %v", err)
	}
	if err := b.Unsubscribe(SubRef{id: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Unsubscribe after close err = %v", err)
	}
	if err := Link(b, brokers[1]); !errors.Is(err, ErrClosed) {
		t.Errorf("Link after close err = %v", err)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Errorf("second Close err = %v", err)
	}
}

func TestManyEventsManySubscribersUnderRace(t *testing.T) {
	const nodes = 15
	brokers := pipeTree(t, nodes, 2, Options{})
	var delivered atomic.Int64
	for i := 0; i < 30; i++ {
		if _, err := brokers[i%nodes].Subscribe(pred("v", predicate.Gt, i*10), func(event.Event) {
			delivered.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	Settle(settleIdle, brokers...)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := brokers[(w*50+i)%nodes].Publish(event.New().Set("v", 145)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	Settle(settleIdle, brokers...)
	// v=145 matches thresholds 0..140 → subscriptions 0..14 → 15 matches
	// per event × 200 events.
	if got := delivered.Load(); got != 15*200 {
		t.Errorf("delivered = %d, want %d", got, 15*200)
	}
	if st := total(brokers); st.Published != 200 {
		t.Errorf("Published = %d", st.Published)
	}
}

// TestStatsCoherenceUnderChurn is the snapshot-coherence property: on a
// two-broker line, the publishing broker's concurrently sampled Stats must
// always reconcile — Forwarded ≤ Published and Delivered ≤ Published, each
// event having one local subscriber and one next hop — because the whole
// snapshot comes from one registry read that reads effects before causes.
// Independently read atomics would let a sampler observe a forward whose
// publish it then missed. Run under -race in CI.
func TestStatsCoherenceUnderChurn(t *testing.T) {
	brokers := pipeLine(t, 2, Options{})
	for _, b := range brokers {
		if _, err := b.Subscribe(pred("k", predicate.Gt, int64(-1)), func(event.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	Settle(settleIdle, brokers...)

	const publishers, perP = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Uint64
	sampled := make(chan struct{})
	go func() { // sampler
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := brokers[0].Stats()
			if st.Forwarded > st.Published {
				violations.Add(1)
				t.Errorf("incoherent snapshot: Forwarded %d > Published %d", st.Forwarded, st.Published)
				return
			}
			if st.Delivered > st.Published {
				violations.Add(1)
				t.Errorf("incoherent snapshot: Delivered %d > Published %d", st.Delivered, st.Published)
				return
			}
		}
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				ev := event.New().Set("k", int64(p*perP+i))
				if err := brokers[0].Publish(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Let the sampler see the whole storm, then stop it and check totals
	// at quiescence.
	wg.Wait()
	Settle(settleIdle, brokers...)
	close(stop)
	<-sampled
	const n = publishers * perP
	if st := brokers[0].Stats(); st.Published != n || st.Forwarded != n || st.Delivered != n {
		t.Errorf("publisher Published/Forwarded/Delivered = %d/%d/%d, want %d each",
			st.Published, st.Forwarded, st.Delivered, n)
	}
	if st := brokers[1].Stats(); st.Delivered != n {
		t.Errorf("far Delivered = %d, want %d", st.Delivered, n)
	}
	if violations.Load() != 0 {
		t.Fatalf("%d incoherent snapshots observed", violations.Load())
	}
}
