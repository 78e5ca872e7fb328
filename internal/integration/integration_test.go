// Package integration ties the layers together: parser → engines → broker →
// wire → TCP, and cross-checks the whole pipeline against reference
// semantics on randomised workloads.
package integration

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/core"
	"noncanon/internal/counting"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/netbroker"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
	"noncanon/internal/workload"
)

// TestParseRegisterMatchAcrossEngines parses textual subscriptions, loads
// them into all three engines over a shared registry, and verifies full
// agreement with direct AST evaluation on a randomised event stream.
func TestParseRegisterMatchAcrossEngines(t *testing.T) {
	subTexts := []string{
		`(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)`,
		`sym = "ACME" and (price < 20 or price > 90)`,
		`a >= 3 and a <= 7`,
		`(b = 1 or b = 2) and (c = 3 or c = 4) and (d = 5 or d = 6)`,
		`exists e or a = 42`,
		`s prefix "AB" and s suffix "YZ"`,
	}
	reg := predicate.NewRegistry()
	idx := index.New()
	engines := []matcher.Matcher{
		core.New(reg, idx, core.Options{}),
		counting.New(reg, idx, counting.Options{Algorithm: counting.Classic}),
		counting.New(reg, idx, counting.Options{Algorithm: counting.Variant}),
	}
	type reg2 struct {
		expr boolexpr.Expr
		ids  []matcher.SubID
	}
	var regs []reg2
	for _, text := range subTexts {
		expr, err := sublang.Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		r := reg2{expr: expr}
		for _, e := range engines {
			id, err := e.Subscribe(expr)
			if err != nil {
				t.Fatalf("%s on %q: %v", e.Name(), text, err)
			}
			r.ids = append(r.ids, id)
		}
		regs = append(regs, r)
	}

	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 500; trial++ {
		ev := event.New()
		for _, attr := range []string{"a", "b", "c", "d"} {
			if rng.Intn(4) > 0 {
				ev = ev.Set(attr, rng.Intn(50))
			}
		}
		if rng.Intn(2) == 0 {
			ev = ev.Set("sym", []string{"ACME", "X"}[rng.Intn(2)]).Set("price", rng.Intn(100))
		}
		if rng.Intn(3) == 0 {
			ev = ev.Set("e", 1)
		}
		if rng.Intn(3) == 0 {
			ev = ev.Set("s", []string{"ABCYZ", "ABX", "QYZ"}[rng.Intn(3)])
		}
		for ei, e := range engines {
			got := map[matcher.SubID]bool{}
			for _, id := range e.Match(ev) {
				got[id] = true
			}
			for ri, r := range regs {
				want := r.expr.Eval(ev)
				if got[r.ids[ei]] != want {
					t.Fatalf("engine %s sub %d (%s) on %s: got %v want %v",
						e.Name(), ri, r.expr, ev, got[r.ids[ei]], want)
				}
			}
		}
	}
}

// TestWorkloadFullPipelineAgreement runs the Table 1 workload through the
// full two-phase Match of both engines using generated events.
func TestWorkloadFullPipelineAgreement(t *testing.T) {
	params := workload.Params{NumSubscriptions: 300, PredsPerSub: 8, Seed: 5}
	reg := predicate.NewRegistry()
	idx := index.New()
	nc := core.New(reg, idx, core.Options{})
	cl := counting.New(reg, idx, counting.Options{})
	ncIDs := make(map[matcher.SubID]int)
	clIDs := make(map[matcher.SubID]int)
	for i := 0; i < params.NumSubscriptions; i++ {
		expr := params.Sub(i)
		a, err := nc.Subscribe(expr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cl.Subscribe(expr)
		if err != nil {
			t.Fatal(err)
		}
		ncIDs[a] = i
		clIDs[b] = i
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		ev := params.Event(rng)
		got1 := map[int]bool{}
		for _, id := range nc.Match(ev) {
			got1[ncIDs[id]] = true
		}
		got2 := map[int]bool{}
		for _, id := range cl.Match(ev) {
			got2[clIDs[id]] = true
		}
		if len(got1) != len(got2) {
			t.Fatalf("trial %d: nc=%d cl=%d matches", trial, len(got1), len(got2))
		}
		for i := range got1 {
			if !got2[i] {
				t.Fatalf("trial %d: sub %d matched only by non-canonical", trial, i)
			}
		}
		// Spot-check against direct evaluation.
		for i := 0; i < 20; i++ {
			j := rng.Intn(params.NumSubscriptions)
			if params.Sub(j).Eval(ev) != got1[j] {
				t.Fatalf("trial %d: sub %d direct eval disagrees", trial, j)
			}
		}
	}
}

// TestBrokerOverTCPEndToEnd drives the full network stack: TCP server with
// embedded broker, two clients, subscription text over the wire, event
// push back.
func TestBrokerOverTCPEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := netbroker.NewServer(netbroker.ServerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	subscriber, err := netbroker.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer subscriber.Close()
	publisher, err := netbroker.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer publisher.Close()

	sub, err := subscriber.Subscribe(`(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)`)
	if err != nil {
		t.Fatal(err)
	}
	matching := event.New().Set("a", 3).Set("c", 30)
	if n, err := publisher.Publish(matching); err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	if n, err := publisher.Publish(event.New().Set("a", 7).Set("c", 30)); err != nil || n != 0 {
		t.Fatalf("non-matching Publish = %d, %v", n, err)
	}
	select {
	case got := <-sub.C():
		if !got.Equal(matching) {
			t.Errorf("received %s, want %s", got, matching)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event over TCP")
	}
}

// TestOverlayVsSingleBroker publishes the same workload into a 1-broker
// "network" and a 9-broker tree of pipe-linked netoverlay brokers;
// delivered counts must be identical — the overlay only changes placement,
// never matching semantics.
func TestOverlayVsSingleBroker(t *testing.T) {
	build := func(nodes int) ([]*netoverlay.Broker, *atomic.Int64) {
		brokers := make([]*netoverlay.Broker, nodes)
		for i := range brokers {
			brokers[i] = netoverlay.NewBroker(netoverlay.Options{NodeID: uint32(i + 1)})
			t.Cleanup(func() { brokers[i].Close() })
		}
		for i := 1; i < nodes; i++ {
			if err := netoverlay.Link(brokers[i], brokers[(i-1)/2]); err != nil {
				t.Fatal(err)
			}
		}
		var delivered atomic.Int64
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 50; i++ {
			expr := boolexpr.NewAnd(
				boolexpr.Pred("cat", predicate.Eq, rng.Intn(5)),
				boolexpr.NewOr(
					boolexpr.Pred("v", predicate.Lt, rng.Intn(40)),
					boolexpr.Pred("v", predicate.Gt, 60+rng.Intn(40)),
				),
			)
			if _, err := brokers[i%nodes].Subscribe(expr, func(event.Event) { delivered.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		netoverlay.Settle(0, brokers...)
		return brokers, &delivered
	}
	single, singleCount := build(1)
	tree, treeCount := build(9)

	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 300; i++ {
		ev := event.New().Set("cat", rng.Intn(5)).Set("v", rng.Intn(100))
		if err := single[0].Publish(ev); err != nil {
			t.Fatal(err)
		}
		if err := tree[i%9].Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	netoverlay.Settle(0, single...)
	netoverlay.Settle(0, tree...)
	if singleCount.Load() != treeCount.Load() {
		t.Errorf("deliveries differ: single=%d tree=%d", singleCount.Load(), treeCount.Load())
	}
	if singleCount.Load() == 0 {
		t.Error("no deliveries; the workload lost its teeth")
	}
}

// TestChurnStability hammers a broker with subscribe/publish/unsubscribe
// churn and verifies the engine ends empty and consistent.
func TestChurnStability(t *testing.T) {
	br := broker.New(broker.Options{QueueSize: 64})
	defer br.Close()
	rng := rand.New(rand.NewSource(123))
	var live []*broker.Subscription
	var delivered atomic.Int64
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			expr, err := sublang.Parse(fmt.Sprintf("x > %d and x < %d", rng.Intn(100), 100+rng.Intn(100)))
			if err != nil {
				t.Fatal(err)
			}
			s, err := br.Subscribe(expr, func(event.Event) { delivered.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		case 1:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := live[i].Unsubscribe(); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		default:
			if _, err := br.Publish(event.New().Set("x", rng.Intn(200))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range live {
		if err := s.Unsubscribe(); err != nil {
			t.Fatal(err)
		}
	}
	if br.NumSubscriptions() != 0 {
		t.Errorf("NumSubscriptions = %d after full churn", br.NumSubscriptions())
	}
}
