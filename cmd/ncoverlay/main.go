// Command ncoverlay runs a broker overlay, in one of two modes.
//
// Simulation (default): N internal/netoverlay brokers in a line/star/tree
// topology inside one process, joined by in-memory pipe links
// (netoverlay.Link), random Boolean subscriptions spread over the brokers,
// random events published at random brokers, routing statistics summed
// over the brokers printed at the end.
//
// Federation (-listen / -peer): this process IS one broker, federated with
// other ncoverlay processes over real TCP using the wire protocol. Links
// must form a tree across the deployment; each process contributes -subs
// local subscriptions and publishes -events local events, then keeps
// serving for -hold before printing its routing statistics.
//
//	# process-per-broker quickstart: a three-broker line on one machine
//	ncoverlay -listen :7001 -id 1 -subs 50 -events 0 -hold 20s &
//	ncoverlay -listen :7002 -id 2 -peer localhost:7001 -subs 50 -events 0 -hold 15s &
//	ncoverlay -id 3 -peer localhost:7002 -subs 0 -events 1000
//
// With -cover, subscription flooding is pruned by covering (a filter is
// not forwarded past a link already carrying a broader one; see
// internal/cover) — the "sub flood msgs" statistic shows the saving.
//
// Usage:
//
//	ncoverlay -nodes 15 -topology tree -subs 200 -events 1000
//	ncoverlay -nodes 15 -topology tree -subs 200 -events 1000 -cover
//	ncoverlay -listen :7001 -id 1 -hold 30s
//	ncoverlay -id 2 -peer host:7001 -subs 100 -events 500 -cover
//
// With -metrics-addr, an operational endpoint serves Prometheus text on
// /metrics, JSON on /vars, recent hop traces on /traces and pprof on
// /debug/pprof/ (see internal/obs). Each broker owns its registry, so in
// simulation mode the endpoint serves the root broker's (broker 0's)
// metrics only. In federation mode, -trace-every N
// stamps every Nth locally published event with a trace ID and origin
// timestamp that ride the wire: each broker the event crosses records the
// hop into its hop-latency histogram and trace ring.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/obs"
	"noncanon/internal/workload"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 15, "broker count (simulation mode)")
		topology = flag.String("topology", "tree", "line | star | tree (simulation mode)")
		fanout   = flag.Int("fanout", 2, "tree fanout (simulation mode)")
		subs     = flag.Int("subs", 200, "subscription count (local to this process in federation mode)")
		events   = flag.Int("events", 1000, "events to publish (local in federation mode)")
		seed     = flag.Int64("seed", 1, "workload seed")
		coverOn  = flag.Bool("cover", false, "prune subscription flooding by covering (see internal/cover)")

		listen = flag.String("listen", "", "federation mode: accept peer brokers on this address")
		peers  = flag.String("peer", "", "federation mode: comma-separated parent broker addresses to link to")
		id     = flag.Uint("id", 0, "federation mode: this broker's node ID (distinct per process; required)")
		settle = flag.Duration("settle", 500*time.Millisecond, "federation mode: quiet window treated as quiescence")
		hold   = flag.Duration("hold", 0, "federation mode: keep serving this long after the local workload")

		highWater = flag.Int("link-highwater", 0, "per-link spill queue byte bound before event shedding starts (0 = default)")
		lowWater  = flag.Int("link-lowwater", 0, "queue bytes below which a congested link clears (0 = highwater/2)")
		evict     = flag.Duration("evict-after", 0, "federation mode: evict a peer congested this long, retracting its routes (0 = default, <0 disables)")
		ping      = flag.Duration("ping", 0, "federation mode: keep-alive ping interval (0 = default, <0 disables)")
		readIdle  = flag.Duration("read-idle", 0, "federation mode: detach a peer silent this long (0 = default, <0 disables)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /vars, /traces and /debug/pprof on this address (simulation mode: the root broker's registry only)")
		traceEvery  = flag.Int("trace-every", 0, "federation mode: stamp every Nth local event with a cross-hop trace (0 disables)")
	)
	flag.Parse()
	var err error
	if *listen != "" || *peers != "" {
		err = runFederated(os.Stdout, fedConfig{
			ID:            uint32(*id),
			Listen:        *listen,
			Peers:         splitPeers(*peers),
			Subs:          *subs,
			Events:        *events,
			Seed:          *seed,
			Cover:         *coverOn,
			Settle:        *settle,
			Hold:          *hold,
			LinkHighWater: *highWater,
			LinkLowWater:  *lowWater,
			EvictAfter:    *evict,
			Ping:          *ping,
			ReadIdle:      *readIdle,
			MetricsAddr:   *metricsAddr,
			TraceEvery:    *traceEvery,
		})
	} else {
		err = run(simConfig{
			Nodes: *nodes, Topology: *topology, Fanout: *fanout,
			Subs: *subs, Events: *events, Seed: *seed, Cover: *coverOn,
			LinkHighWater: *highWater, LinkLowWater: *lowWater,
			MetricsAddr: *metricsAddr,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncoverlay:", err)
		os.Exit(1)
	}
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// fedConfig parameterises one federated broker process.
type fedConfig struct {
	ID     uint32
	Listen string
	Peers  []string
	Subs   int
	Events int
	Seed   int64
	Cover  bool
	Settle time.Duration
	Hold   time.Duration

	// Flow control and liveness (zero values pick netoverlay defaults).
	LinkHighWater int
	LinkLowWater  int
	EvictAfter    time.Duration
	Ping          time.Duration
	ReadIdle      time.Duration

	// MetricsAddr serves the operational endpoint; TraceEvery samples
	// every Nth local event for cross-hop tracing (0 disables each).
	MetricsAddr string
	TraceEvery  int
}

// dialRetry covers peers started in any order: a parent that is still
// coming up is retried for this long before the link fails.
const (
	dialRetry    = 10 * time.Second
	dialInterval = 200 * time.Millisecond
)

func runFederated(w io.Writer, cfg fedConfig) error {
	if cfg.ID == 0 {
		return fmt.Errorf("federation mode needs a distinct -id per process")
	}
	b := netoverlay.NewBroker(netoverlay.Options{
		NodeID:             cfg.ID,
		Cover:              cfg.Cover,
		TraceSampleEvery:   cfg.TraceEvery,
		LinkHighWater:      cfg.LinkHighWater,
		LinkLowWater:       cfg.LinkLowWater,
		CongestionDeadline: cfg.EvictAfter,
		PingInterval:       cfg.Ping,
		ReadIdleTimeout:    cfg.ReadIdle,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	defer b.Close()
	if cfg.MetricsAddr != "" {
		ep := obs.Endpoint{Registry: b.Metrics(), Ring: b.Traces()}
		ln, err := ep.Serve(cfg.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(w, "broker %d metrics on http://%s/metrics\n", cfg.ID, ln.Addr())
	}
	if cfg.Listen != "" {
		addr, err := b.Listen(cfg.Listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "broker %d listening on %s\n", cfg.ID, addr)
	}
	for _, p := range cfg.Peers {
		if err := connectRetry(b, p); err != nil {
			return err
		}
		fmt.Fprintf(w, "broker %d linked to %s\n", cfg.ID, p)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var delivered atomic.Int64
	for i := 0; i < cfg.Subs; i++ {
		if _, err := b.Subscribe(workload.StockSub(rng), func(event.Event) { delivered.Add(1) }); err != nil {
			return err
		}
	}
	b.Quiesce(cfg.Settle)

	var elapsed time.Duration
	if cfg.Events > 0 {
		start := time.Now()
		for i := 0; i < cfg.Events; i++ {
			if err := b.Publish(workload.StockEvent(rng, i)); err != nil {
				return err
			}
		}
		b.Quiesce(cfg.Settle)
		elapsed = time.Since(start)
		// With peers in other processes Quiesce spends its last cfg.Settle
		// observing an already-quiet broker; don't bill that to throughput.
		if b.Stats().Peers > 0 {
			elapsed -= cfg.Settle
		}
		if elapsed <= 0 {
			elapsed = time.Millisecond
		}
	}
	if cfg.Hold > 0 {
		time.Sleep(cfg.Hold)
	}

	st := b.Stats()
	fmt.Fprintf(w, "broker          %d (federated, cover=%v)\n", cfg.ID, cfg.Cover)
	fmt.Fprintf(w, "peers           %d\n", st.Peers)
	fmt.Fprintf(w, "local subs      %d\n", cfg.Subs)
	if cfg.Events > 0 {
		fmt.Fprintf(w, "events          %d in %v (%.0f events/s)\n",
			cfg.Events, elapsed.Round(time.Millisecond), float64(cfg.Events)/elapsed.Seconds())
	}
	fmt.Fprintf(w, "deliveries      %d local handler calls\n", delivered.Load())
	fmt.Fprintf(w, "link crossings  %d events forwarded to peers\n", st.Forwarded)
	fmt.Fprintf(w, "sub flood msgs  %d\n", st.SubscriptionMsgs)
	if cfg.Cover {
		fmt.Fprintf(w, "cover pruned    %d forwards\n", st.CoverSuppressed)
	}
	fmt.Fprintf(w, "flow control    %d events shed (%d bytes spilled), %d bytes queued, %d peers evicted\n",
		st.Shed, st.SpilledBytes, st.QueuedBytes, st.Evicted)
	if st.HopDropped != 0 || st.InstallErrors != 0 {
		fmt.Fprintf(w, "ANOMALIES       hop-dropped %d, install errors %d\n", st.HopDropped, st.InstallErrors)
	}
	return nil
}

func connectRetry(b *netoverlay.Broker, addr string) error {
	deadline := time.Now().Add(dialRetry)
	for {
		err := b.Connect(addr)
		if err == nil {
			return nil
		}
		// Retrying is for peers still starting up; a handshake rejection
		// (version mismatch, duplicate link, self-link) is deterministic.
		if errors.Is(err, netoverlay.ErrHandshake) || time.Now().After(deadline) {
			return fmt.Errorf("link to %s: %w", addr, err)
		}
		time.Sleep(dialInterval)
	}
}

// simConfig parameterises one in-process simulation run.
type simConfig struct {
	Nodes    int
	Topology string
	Fanout   int
	Subs     int
	Events   int
	Seed     int64
	Cover    bool

	LinkHighWater int
	LinkLowWater  int
	MetricsAddr   string
}

func run(sc simConfig) error {
	var parent func(i int) int
	switch sc.Topology {
	case "line":
		parent = func(i int) int { return i - 1 }
	case "star":
		parent = func(int) int { return 0 }
	case "tree":
		if sc.Fanout < 1 {
			return fmt.Errorf("tree fanout must be >= 1, got %d", sc.Fanout)
		}
		parent = func(i int) int { return (i - 1) / sc.Fanout }
	default:
		return fmt.Errorf("unknown topology %q", sc.Topology)
	}
	if sc.Nodes < 1 {
		return fmt.Errorf("need at least one broker, got %d", sc.Nodes)
	}
	brokers := make([]*netoverlay.Broker, sc.Nodes)
	for i := range brokers {
		brokers[i] = netoverlay.NewBroker(netoverlay.Options{
			NodeID:        uint32(i + 1),
			Cover:         sc.Cover,
			LinkHighWater: sc.LinkHighWater,
			LinkLowWater:  sc.LinkLowWater,
		})
		defer brokers[i].Close()
	}
	for i := 1; i < sc.Nodes; i++ {
		if err := netoverlay.Link(brokers[i], brokers[parent(i)]); err != nil {
			return err
		}
	}
	if sc.MetricsAddr != "" {
		ln, err := obs.Serve(sc.MetricsAddr, brokers[0].Metrics())
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		defer ln.Close()
		fmt.Printf("metrics on http://%s/metrics (root broker)\n", ln.Addr())
	}

	rng := rand.New(rand.NewSource(sc.Seed))
	var delivered atomic.Int64

	for i := 0; i < sc.Subs; i++ {
		at := rng.Intn(sc.Nodes)
		if _, err := brokers[at].Subscribe(workload.StockSub(rng), func(event.Event) { delivered.Add(1) }); err != nil {
			return err
		}
	}
	netoverlay.Settle(0, brokers...)

	start := time.Now()
	for i := 0; i < sc.Events; i++ {
		if err := brokers[rng.Intn(sc.Nodes)].Publish(workload.StockEvent(rng, i)); err != nil {
			return err
		}
	}
	netoverlay.Settle(0, brokers...)
	elapsed := time.Since(start)

	var st netoverlay.Stats
	for _, b := range brokers {
		bs := b.Stats()
		st.Forwarded += bs.Forwarded
		st.SubscriptionMsgs += bs.SubscriptionMsgs
		st.CoverSuppressed += bs.CoverSuppressed
		st.Shed += bs.Shed
		st.SpilledBytes += bs.SpilledBytes
	}
	fmt.Printf("topology        %s (%d brokers)\n", sc.Topology, sc.Nodes)
	fmt.Printf("subscriptions   %d\n", sc.Subs)
	fmt.Printf("events          %d in %v (%.0f events/s)\n",
		sc.Events, elapsed.Round(time.Millisecond), float64(sc.Events)/elapsed.Seconds())
	fmt.Printf("deliveries      %d (%.2f per event)\n",
		delivered.Load(), float64(delivered.Load())/float64(sc.Events))
	fmt.Printf("link crossings  %d (%.2f per event; filtering prunes the rest)\n",
		st.Forwarded, float64(st.Forwarded)/float64(sc.Events))
	fmt.Printf("sub flood msgs  %d\n", st.SubscriptionMsgs)
	if sc.Cover {
		fmt.Printf("cover pruned    %d forwards\n", st.CoverSuppressed)
	}
	if st.Shed != 0 {
		fmt.Printf("flow control    %d events shed (%d bytes spilled)\n", st.Shed, st.SpilledBytes)
	}
	return nil
}
