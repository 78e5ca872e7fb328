package netoverlay

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"noncanon/internal/event"
)

// counter is a handler that counts its calls.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) handle(event.Event) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestCoverSuppressesFlood(t *testing.T) {
	brokers := pipeLine(t, 5, Options{Cover: true})
	var wide, narrow counter
	if _, err := brokers[0].Subscribe(band(1, 100), wide.handle); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	afterWide := total(brokers)
	if afterWide.SubscriptionMsgs != 4 {
		t.Fatalf("wide flood crossed %d links, want 4", afterWide.SubscriptionMsgs)
	}

	// The narrower subscription must not be flooded at all: broker 0's
	// only link already carries a coverer.
	if _, err := brokers[0].Subscribe(band(1, 10), narrow.handle); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	st := total(brokers)
	if st.SubscriptionMsgs != afterWide.SubscriptionMsgs {
		t.Errorf("narrow subscription was flooded: %d -> %d link messages",
			afterWide.SubscriptionMsgs, st.SubscriptionMsgs)
	}
	if st.CoverSuppressed != 1 {
		t.Errorf("CoverSuppressed = %d, want 1", st.CoverSuppressed)
	}

	// Events published at the far end still reach the suppressed
	// subscriber: the wide filter attracts them across the tree.
	if err := brokers[4].Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := brokers[4].Publish(bandEvent(1, 50)); err != nil { // wide only
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if n := wide.get(); n != 2 {
		t.Errorf("wide deliveries = %d, want 2", n)
	}
	if n := narrow.get(); n != 1 {
		t.Errorf("narrow deliveries = %d, want 1", n)
	}
}

func TestCoverUnsubscribeRefloods(t *testing.T) {
	brokers := pipeLine(t, 4, Options{Cover: true})
	var narrow counter
	wide, err := brokers[0].Subscribe(band(1, 100), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if _, err := brokers[0].Subscribe(band(1, 10), narrow.handle); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	preUnsub := total(brokers)
	if preUnsub.CoverSuppressed != 1 {
		t.Fatalf("setup: CoverSuppressed = %d, want 1", preUnsub.CoverSuppressed)
	}

	// Unsubscribing the coverer must re-flood the narrow filter so remote
	// events keep reaching it.
	if err := brokers[0].Unsubscribe(wide); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	st := total(brokers)
	// Per link: one re-flooded subscribe + one unsubscribe retraction,
	// across 3 links.
	if got := st.SubscriptionMsgs - preUnsub.SubscriptionMsgs; got != 6 {
		t.Errorf("re-flood link messages = %d, want 6", got)
	}
	if err := brokers[3].Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := brokers[3].Publish(bandEvent(1, 50)); err != nil { // nobody left
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if n := narrow.get(); n != 1 {
		t.Errorf("narrow deliveries after re-flood = %d, want 1", n)
	}
	// Only the matching event travels the 3 links to broker 0; the
	// wide-only one no longer crosses any.
	if got := total(brokers).Forwarded - st.Forwarded; got != 3 {
		t.Errorf("events crossed %d links, want 3", got)
	}
}

// TestCoverChainedRecovery pins the re-suppression path: with nested
// filters wide ⊇ mid ⊇ narrow all homed at broker 0, unsubscribing wide
// must re-flood mid but re-suppress narrow under mid, not flood it.
func TestCoverChainedRecovery(t *testing.T) {
	brokers := pipeLine(t, 3, Options{Cover: true})
	var mid, narrow counter
	wide, err := brokers[0].Subscribe(band(1, 100), func(event.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if _, err := brokers[0].Subscribe(band(1, 50), mid.handle); err != nil {
		t.Fatal(err)
	}
	if _, err := brokers[0].Subscribe(band(1, 10), narrow.handle); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if st := total(brokers); st.CoverSuppressed != 2 {
		t.Fatalf("setup: CoverSuppressed = %d, want 2", st.CoverSuppressed)
	}

	if err := brokers[0].Unsubscribe(wide); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	// 2 initial suppressions + narrow re-suppressed under mid at broker 0
	// + mid transiently re-suppressed at broker 1, where the re-flood
	// overtakes wide's retraction (the ordering that keeps routing gapless).
	if st := total(brokers); st.CoverSuppressed != 4 {
		t.Errorf("CoverSuppressed = %d, want 4", st.CoverSuppressed)
	}
	if err := brokers[2].Publish(bandEvent(1, 5)); err != nil {
		t.Fatal(err)
	}
	Settle(settleIdle, brokers...)
	if mid.get() != 1 || narrow.get() != 1 {
		t.Errorf("deliveries mid=%d narrow=%d, want 1/1", mid.get(), narrow.get())
	}
}

// coverRecorder accumulates (subscriber, event-seq) pairs.
type coverRecorder struct {
	mu   sync.Mutex
	seen map[string][]int64
}

func newCoverRecorder() *coverRecorder {
	return &coverRecorder{seen: map[string][]int64{}}
}

func (r *coverRecorder) handler(tag string) Handler {
	return func(ev event.Event) {
		v, _ := ev.Get("seq")
		r.mu.Lock()
		r.seen[tag] = append(r.seen[tag], v.Int())
		r.mu.Unlock()
	}
}

func (r *coverRecorder) snapshot() map[string][]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]int64, len(r.seen))
	for k, v := range r.seen {
		s := append([]int64(nil), v...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[k] = s
	}
	return out
}

// TestCoverDifferential drives a covering and a plain pipe-linked tree
// through the same interleaved subscribe/unsubscribe/publish script
// (settling between phases so both see identical routing states) and
// requires the exact same (subscriber, event) delivery multisets — while
// the covering network sends strictly fewer subscription link messages.
func TestCoverDifferential(t *testing.T) {
	const nodes = 13
	plain := pipeTree(t, nodes, 2, Options{})
	covered := pipeTree(t, nodes, 2, Options{Cover: true})

	recPlain, recCover := newCoverRecorder(), newCoverRecorder()
	rng := rand.New(rand.NewSource(17))
	type pair struct {
		at   int
		p, c SubRef
	}
	live := map[string]pair{}
	var tags []string
	seq := int64(0)

	for round := 0; round < 30; round++ {
		// Churn phase: a burst of subscribes and unsubscribes.
		for i := 0; i < 12; i++ {
			if rng.Intn(3) < 2 || len(tags) == 0 {
				tag := fmt.Sprintf("r%dc%d", round, i)
				at := rng.Intn(nodes)
				f := band(rng.Intn(3), 10*(1+rng.Intn(10)))
				rp, err := plain[at].Subscribe(f, recPlain.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				rc, err := covered[at].Subscribe(f, recCover.handler(tag))
				if err != nil {
					t.Fatal(err)
				}
				live[tag] = pair{at: at, p: rp, c: rc}
				tags = append(tags, tag)
			} else {
				i := rng.Intn(len(tags))
				tag := tags[i]
				tags[i] = tags[len(tags)-1]
				tags = tags[:len(tags)-1]
				pr := live[tag]
				delete(live, tag)
				if err := plain[pr.at].Unsubscribe(pr.p); err != nil {
					t.Fatal(err)
				}
				if err := covered[pr.at].Unsubscribe(pr.c); err != nil {
					t.Fatal(err)
				}
			}
		}
		Settle(settleIdle, plain...)
		Settle(settleIdle, covered...)

		// Publish phase against the settled routing state.
		for i := 0; i < 15; i++ {
			seq++
			ev := bandEvent(rng.Intn(3), rng.Intn(110)).Set("seq", seq)
			at := rng.Intn(nodes)
			if err := plain[at].Publish(ev); err != nil {
				t.Fatal(err)
			}
			if err := covered[at].Publish(ev); err != nil {
				t.Fatal(err)
			}
		}
		Settle(settleIdle, plain...)
		Settle(settleIdle, covered...)
	}

	dp, dc := recPlain.snapshot(), recCover.snapshot()
	if len(dp) != len(dc) {
		t.Fatalf("subscriber sets differ: %d vs %d", len(dp), len(dc))
	}
	for tag, ps := range dp {
		if cs := dc[tag]; fmt.Sprint(ps) != fmt.Sprint(cs) {
			t.Fatalf("subscriber %s: plain delivered %v, covered %v", tag, ps, cs)
		}
	}

	stPlain, stCover := total(plain), total(covered)
	if stCover.CoverSuppressed == 0 {
		t.Error("covering never suppressed a flood; the script lost its teeth")
	}
	if stCover.SubscriptionMsgs >= stPlain.SubscriptionMsgs {
		t.Errorf("covering sent %d subscription messages, plain %d — no pruning",
			stCover.SubscriptionMsgs, stPlain.SubscriptionMsgs)
	}
	t.Logf("subscription link messages: plain %d, covered %d (suppressed %d)",
		stPlain.SubscriptionMsgs, stCover.SubscriptionMsgs, stCover.CoverSuppressed)
}
