package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
)

// FederatePoint is one node-count setting of the federation sweep (F1): the
// same workload routed through N real TCP-federated broker processes, with
// and without covering-pruned subscription forwarding.
type FederatePoint struct {
	Nodes int

	// Loopback-TCP publish throughput: events/s from first publish until
	// the federation quiesces, with covering off and on.
	EventsPerSecOff float64
	EventsPerSecOn  float64

	// Subscription flood link messages for the same registration sequence.
	FloodMsgsOff uint64
	FloodMsgsOn  uint64
	// Suppressed counts the forwards covering pruned.
	Suppressed uint64

	// Delivered is the total handler invocations across the federation —
	// identical for both configurations and equal to the matching oracle's
	// expectation (each (subscriber, event) match delivered exactly once);
	// MeasureFederate fails otherwise.
	Delivered uint64
}

// FederateResult is the federation sweep.
type FederateResult struct {
	Subscribers int
	Events      int
	Points      []FederatePoint
}

// federateSettle is the idle window handed to Settle. It applies only
// while some link leaves the broker set Settle is given; within the set
// Settle counts messages and returns once they are all handled, so elapsed
// time needs no correction for the window.
const federateSettle = 60 * time.Millisecond

// federateNodeCounts returns the swept federation sizes (binary trees).
func federateNodeCounts() []int { return []int{3, 7, 15} }

// MeasureFederate measures what broker federation costs and covering buys
// when the brokers are genuinely distributed: N netoverlay brokers in one
// process, linked into a binary tree over real loopback TCP sockets,
// carrying the C1 workload (Zipf-popular nested band filters). For every
// point the measured deliveries are checked against a naive evaluation
// oracle — every matching (subscriber, event) pair exactly once, federation
// wide — so the experiment doubles as an end-to-end correctness smoke.
func MeasureFederate(cfg Config) (FederateResult, error) {
	cfg = cfg.withDefaults()
	subs := scaleCount(20_000, cfg.Scale)
	events := scaleCount(25_000, cfg.Scale)
	pool := subs / 16
	if pool < coverCategories {
		pool = coverCategories
	}
	res := FederateResult{Subscribers: subs, Events: events}
	for _, nodes := range federateNodeCounts() {
		pt := FederatePoint{Nodes: nodes}
		var deliveredOff, deliveredOn uint64
		var err error
		pt.EventsPerSecOff, pt.FloodMsgsOff, _, deliveredOff, err =
			federateRun(cfg, nodes, subs, events, pool, false)
		if err != nil {
			return FederateResult{}, err
		}
		pt.EventsPerSecOn, pt.FloodMsgsOn, pt.Suppressed, deliveredOn, err =
			federateRun(cfg, nodes, subs, events, pool, true)
		if err != nil {
			return FederateResult{}, err
		}
		if deliveredOff != deliveredOn {
			return FederateResult{}, fmt.Errorf(
				"bench: federate %d nodes: covering changed deliveries: %d plain, %d covered",
				nodes, deliveredOff, deliveredOn)
		}
		if pt.Suppressed == 0 {
			return FederateResult{}, fmt.Errorf(
				"bench: federate %d nodes: covering never suppressed a forward on the nested-band workload", nodes)
		}
		pt.Delivered = deliveredOff
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// federateRun registers the workload into a fresh loopback-TCP federation
// and measures flood messages and publish throughput, verifying deliveries
// against the naive oracle.
func federateRun(cfg Config, nodes, subs, events, pool int, coverOn bool) (eventsPerSec float64, floodMsgs, suppressed, delivered uint64, err error) {
	brokers := make([]*netoverlay.Broker, nodes)
	addrs := make([]string, nodes)
	defer func() {
		for _, b := range brokers {
			if b != nil {
				b.Close()
			}
		}
	}()
	var anomalyMu sync.Mutex
	var anomaly error
	for i := range brokers {
		brokers[i] = netoverlay.NewBroker(netoverlay.Options{
			NodeID: uint32(i + 1),
			Cover:  coverOn,
			OnError: func(err error) {
				anomalyMu.Lock()
				if anomaly == nil {
					anomaly = err
				}
				anomalyMu.Unlock()
			},
		})
		addr, err := brokers[i].Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate listen: %w", err)
		}
		addrs[i] = addr.String()
	}
	for i := 1; i < nodes; i++ {
		if err := brokers[i].Connect(addrs[(i-1)/2]); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate link %d->%d: %w", i, (i-1)/2, err)
		}
	}

	// Registration: the C1 draw, homed round the tree. counts[s][e] tracks
	// exactly-once delivery per (subscriber, event) pair.
	rng := rand.New(rand.NewSource(cfg.Seed + 211))
	ranks := coverRanks(rng, 1.1, subs, pool)
	filters := make([]boolexpr.Expr, subs)
	counts := make([][]uint32, subs)
	for s, r := range ranks {
		s := s
		filters[s] = coverFilter(r, pool)
		counts[s] = make([]uint32, events)
		home := brokers[rng.Intn(nodes)]
		if _, err := home.Subscribe(filters[s], func(ev event.Event) {
			v, _ := ev.Get("seq")
			atomic.AddUint32(&counts[s][v.Int()], 1)
		}); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate subscribe: %w", err)
		}
	}
	netoverlay.Settle(federateSettle, brokers...)

	evs := make([]event.Event, events)
	for e := range evs {
		evs[e] = coverEvent(rng, pool).Set("seq", int64(e))
	}
	origins := make([]int, events)
	for e := range origins {
		origins[e] = rng.Intn(nodes)
	}
	t0 := time.Now()
	for e, ev := range evs {
		if err := brokers[origins[e]].Publish(ev); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate publish: %w", err)
		}
	}
	netoverlay.Settle(federateSettle, brokers...)
	elapsed := time.Since(t0)

	// Exactly-once check against the naive oracle.
	for s := range counts {
		for e := range counts[s] {
			want := uint32(0)
			if filters[s].Eval(evs[e]) {
				want = 1
			}
			if got := atomic.LoadUint32(&counts[s][e]); got != want {
				return 0, 0, 0, 0, fmt.Errorf(
					"bench: federate %d nodes cover=%v: subscriber %d saw event %d %d times, want %d",
					nodes, coverOn, s, e, got, want)
			}
		}
	}
	for _, b := range brokers {
		st := b.Stats()
		floodMsgs += st.SubscriptionMsgs
		suppressed += st.CoverSuppressed
		delivered += st.Delivered
		if st.HopDropped != 0 || st.InstallErrors != 0 {
			return 0, 0, 0, 0, fmt.Errorf("bench: federate node %d: drops/anomalies %+v", b.NodeID(), st)
		}
	}
	anomalyMu.Lock()
	firstAnomaly := anomaly
	anomalyMu.Unlock()
	if firstAnomaly != nil {
		return 0, 0, 0, 0, fmt.Errorf("bench: federate routing anomaly: %w", firstAnomaly)
	}
	return float64(events) / elapsed.Seconds(), floodMsgs, suppressed, delivered, nil
}

// RunFederate regenerates the federation sweep and prints its series.
func RunFederate(cfg Config) error {
	cfg = cfg.withDefaults()
	res, err := MeasureFederate(cfg)
	if err != nil {
		return err
	}
	w := cfg.Out
	if cfg.CSV {
		fmt.Fprintf(w, "nodes,events_s_off,events_s_on,flood_off,flood_on,suppressed,delivered\n")
		for _, p := range res.Points {
			fmt.Fprintf(w, "%d,%.1f,%.1f,%d,%d,%d,%d\n",
				p.Nodes, p.EventsPerSecOff, p.EventsPerSecOn,
				p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed, p.Delivered)
		}
		return nil
	}
	fmt.Fprintf(w, "F1: broker federation over loopback TCP vs node count\n")
	fmt.Fprintf(w, "workload: %d subscribers (Zipf 1.1 nested bands), %d events, binary broker tree;\n",
		res.Subscribers, res.Events)
	fmt.Fprintf(w, "every (subscriber, event) match verified delivered exactly once, federation-wide\n\n")
	fmt.Fprintf(w, "%-6s | %-24s| %-26s| %s\n",
		"", "publish events/s", "sub flood msgs", "")
	fmt.Fprintf(w, "%-6s | %-11s %-12s| %-8s %-8s %-8s| %s\n",
		"nodes", "plain", "cover", "plain", "cover", "pruned", "delivered")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%-6d | %-11.0f %-12.0f| %-8d %-8d %-8d| %d\n",
			p.Nodes, p.EventsPerSecOff, p.EventsPerSecOn,
			p.FloodMsgsOff, p.FloodMsgsOn, p.Suppressed, p.Delivered)
	}
	fmt.Fprintln(w)
	return nil
}
