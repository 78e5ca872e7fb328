package main

import (
	"fmt"

	"noncanon/internal/broker"
	"noncanon/internal/core"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/predicate"
)

// property is the measured input property that makes a workload do its
// job; the benchmark's tests keep each inside its documented range.
type property struct {
	deliveries float64 // stable deliveries per event, from the oracle

	// match: phase-one and phase-two work per event on an engine holding
	// the stable population, and the store size.
	fulfilled, candidates, matches float64
	store                          int

	// churn: shares of the stable population under DAG aggregation.
	distinct, frontier, covered float64
}

// measureProperty computes a workload's property from its inputs alone.
func measureProperty(sp *spec, in *inputs) (property, error) {
	var p property
	for e := range in.events {
		p.deliveries += float64(in.expect[e])
	}
	p.deliveries /= float64(len(in.events))
	switch sp.name {
	case "match":
		reg := predicate.NewRegistry()
		idx := index.New()
		eng := core.New(reg, idx, sp.opts.Engine)
		for _, f := range in.stable {
			if _, err := eng.Subscribe(in.filters[f]); err != nil {
				return p, fmt.Errorf("property: %w", err)
			}
		}
		p.store = eng.NumSubscriptions()
		var fulfilled []predicate.ID
		for _, ev := range in.events {
			fulfilled = idx.Match(ev, fulfilled[:0])
			_, evals := eng.InstrumentedMatch(fulfilled)
			p.fulfilled += float64(len(fulfilled))
			p.candidates += float64(evals)
			p.matches += float64(len(eng.MatchPredicates(fulfilled)))
		}
		n := float64(len(in.events))
		p.fulfilled, p.candidates, p.matches = p.fulfilled/n, p.candidates/n, p.matches/n
	case "churn":
		b := broker.New(sp.opts)
		defer b.Close()
		for _, f := range in.stable {
			if _, err := b.Subscribe(in.filters[f], func(event.Event) {}); err != nil {
				return p, fmt.Errorf("property: %w", err)
			}
		}
		st := b.Stats()
		n := float64(st.Subscriptions)
		p.distinct, p.frontier, p.covered = float64(st.DistinctFilters)/n, float64(st.FrontierFilters)/n, float64(st.CoveredSubscribers)/n
	}
	return p, nil
}

// describe renders the property, plus churn requests per second, which a
// run measures.
func (p property) describe(sp *spec, res *result) string {
	switch sp.name {
	case "match":
		return fmt.Sprintf("store %d subscriptions; per event %.0f fulfilled predicates, %.0f candidates, %.1f matches",
			p.store, p.fulfilled, p.candidates, p.matches)
	case "churn":
		return fmt.Sprintf("%.1f deliveries per event; distinct %.3f, frontier %.3f, covered %.3f of %d stable subscriptions; %.0f churn requests/s",
			p.deliveries, p.distinct, p.frontier, p.covered, churnStable, float64(res.churnOps)/max(res.churnSeconds, 1e-9))
	}
	return fmt.Sprintf("%.1f deliveries per event", p.deliveries)
}
