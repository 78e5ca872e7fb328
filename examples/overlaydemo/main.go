// Overlaydemo: a 13-broker overlay routing events to the subscribers'
// brokers only — the peer-to-peer deployment the paper motivates for
// resource-constrained filtering nodes. The brokers are internal/netoverlay
// brokers joined in one process by in-memory pipe links; the same brokers
// federate across processes over TCP. (The packages are internal; this
// example doubles as their usage reference.)
package main

import (
	"fmt"
	"sync/atomic"

	"noncanon/internal/event"
	"noncanon/internal/netoverlay"
	"noncanon/internal/sublang"
)

func main() {
	// A binary tree of 13 brokers: 0 is the root, 1..2 its children, etc.
	brokers := make([]*netoverlay.Broker, 13)
	for i := range brokers {
		brokers[i] = netoverlay.NewBroker(netoverlay.Options{NodeID: uint32(i + 1)})
		defer brokers[i].Close()
	}
	for i := 1; i < len(brokers); i++ {
		if err := netoverlay.Link(brokers[i], brokers[(i-1)/2]); err != nil {
			panic(err)
		}
	}

	// Regional subscribers at the leaves.
	var eu, us atomic.Int64
	mustSubscribe(brokers[7], `region = "eu" and severity >= 3`, func(event.Event) { eu.Add(1) })
	mustSubscribe(brokers[12], `region = "us" and (severity >= 3 or service = "payments")`, func(event.Event) { us.Add(1) })
	netoverlay.Settle(0, brokers...)

	// Alerts published at the root flow only toward interested leaves.
	alerts := []event.Event{
		event.New().Set("region", "eu").Set("severity", 5).Set("service", "db"),
		event.New().Set("region", "us").Set("severity", 1).Set("service", "payments"),
		event.New().Set("region", "us").Set("severity", 1).Set("service", "web"),
		event.New().Set("region", "apac").Set("severity", 5).Set("service", "db"),
	}
	for _, ev := range alerts {
		if err := brokers[0].Publish(ev); err != nil {
			panic(err)
		}
	}
	netoverlay.Settle(0, brokers...)

	var forwarded uint64
	for _, b := range brokers {
		forwarded += b.Stats().Forwarded
	}
	fmt.Printf("published       %d alerts at the root broker\n", brokers[0].Stats().Published)
	fmt.Printf("eu deliveries   %d (expected 1)\n", eu.Load())
	fmt.Printf("us deliveries   %d (expected 1)\n", us.Load())
	fmt.Printf("link crossings  %d — a broadcast would have needed %d\n",
		forwarded, len(alerts)*(len(brokers)-1))
}

func mustSubscribe(b *netoverlay.Broker, sub string, h netoverlay.Handler) {
	expr, err := sublang.Parse(sub)
	if err != nil {
		panic(err)
	}
	if _, err := b.Subscribe(expr, h); err != nil {
		panic(err)
	}
}
