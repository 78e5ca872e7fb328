package main

import (
	"math/rand"

	"noncanon/internal/boolexpr"
	"noncanon/internal/event"
	"noncanon/internal/predicate"
	"noncanon/internal/workload"
)

// baseEvents is the number of distinct events a workload draws. Event seq
// is base event seq%baseEvents with a "seq" attribute added; no filter
// reads "seq", so the oracle answers each base event once.
const baseEvents = 256

// inputs is one workload's generated subscription and event sequences plus
// the oracle's answers for them. It is a pure function of the seed.
type inputs struct {
	filters []boolexpr.Expr // filter pool; subscriptions name filters by index
	texts   []string        // sublang text of each filter, as sent on the wire
	stable  []int           // filter of each stable subscription, in set-up order
	churn   []int           // churn: filter of each churn subscribe, cycled
	events  []event.Event   // base events, without "seq"
	gaps    []float64       // open-loop inter-arrival times, unit mean, cycled

	hits   [][]uint64 // hits[e] has bit f set iff filters[f] matches events[e]
	expect []int      // deliveries to stable subscriptions each base event is due
}

// event returns the event published with sequence number seq.
func (in *inputs) event(seq int64) event.Event {
	return in.events[seq%int64(len(in.events))].Set("seq", seq)
}

// matches reports the oracle's verdict for filter f on event seq.
func (in *inputs) matches(seq int64, f int) bool {
	e := seq % int64(len(in.events))
	return in.hits[e][f>>6]&(1<<(uint(f)&63)) != 0
}

// expected returns the stable deliveries the oracle expects for event seq.
func (in *inputs) expected(seq int64) int { return in.expect[seq%int64(len(in.events))] }

// arrivalGaps is the number of inter-arrival times a workload draws.
const arrivalGaps = 4096

// solve draws the open-loop arrival schedule and fills the oracle tables
// by evaluating every filter against every base event with the naive
// boolexpr evaluator.
//
// Arrivals are Poisson: exponential gaps with unit mean, scaled by each
// generator's mean interval. A strictly periodic schedule would lock the
// publisher and the churn issuer (4 ms and 1 ms apart in churn) into one
// phase offset for a whole run, and the offset decided whether publishes
// collided with subscribes: ack latency came out in two modes from run to
// run.
func (in *inputs) solve(seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in.gaps = make([]float64, arrivalGaps)
	for i := range in.gaps {
		in.gaps[i] = rng.ExpFloat64()
	}
	in.texts = make([]string, len(in.filters))
	for f, x := range in.filters {
		in.texts[f] = x.String()
	}
	mult := make([]int, len(in.filters))
	for _, f := range in.stable {
		mult[f]++
	}
	words := (len(in.filters) + 63) / 64
	in.hits = make([][]uint64, len(in.events))
	in.expect = make([]int, len(in.events))
	for e, ev := range in.events {
		row := make([]uint64, words)
		for f, x := range in.filters {
			if x.Eval(ev) {
				row[f>>6] |= 1 << (uint(f) & 63)
				in.expect[e] += mult[f]
			}
		}
		in.hits[e] = row
	}
}

// genFanout draws 1 000 stock-ticker subscriptions (workload.StockSub) and
// stock events: about one subscription in five matches each event.
func genFanout(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < 1000; i++ {
		in.filters = append(in.filters, workload.StockSub(rng))
		in.stable = append(in.stable, i)
	}
	for e := 0; e < baseEvents; e++ {
		in.events = append(in.events, workload.StockEvent(rng, 0))
	}
	in.solve(seed)
	return in
}

// Paper-shape selective workload. Each subscription is an AND of three
// OR-pairs of unique range predicates (the paper's Table 1 shape,
// |p| = 6). Pair k holds when its attribute falls below the pair's low cut
// or above its high cut; the cuts are drawn so that pair k holds with mean
// probability matchPairP[k]. So each event fulfils about
// sum(matchPairP)·n predicates but matches only about prod(matchPairP)·n
// subscriptions: 11 000 and 22 at n = 20 000, the paper's regime of many
// fulfilled predicates and few matches.
//
// Range predicates on one attribute are nested, so an event near the end
// of a domain satisfies a pair for most subscriptions on that attribute.
// Each pair therefore draws its attribute from a group of matchAttrs
// attributes: spread over 64 attributes, matches per event stay near the
// mean (p99 about 100) instead of heavy-tailed, and fulfilled predicates,
// hence matching cost, vary little from event to event.
var matchPairP = [3]float64{0.45, 0.05, 0.05}

const matchAttrs = 64

const (
	matchSubs = 20000
	// matchSpread is the number of distinct cut levels per pair; the
	// domain is matchSpread·matchSubs wide, and adding the subscription
	// index to a level keeps every constant unique.
	matchSpread = 1024
)

func genMatch(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	const n = matchSubs
	const domain = int64(matchSpread) * n
	attrs := 0
	for i := 0; i < n; i++ {
		pairs := make([]boolexpr.Expr, len(matchPairP))
		first := 0
		for k, p := range matchPairP {
			attr := workload.Attr(first + rng.Intn(matchAttrs))
			first += matchAttrs
			levels := int64(p * matchSpread)
			lo := rng.Int63n(levels)*n + int64(i)
			hi := domain - 1 - (rng.Int63n(levels)*n + int64(i))
			pairs[k] = boolexpr.NewOr(
				boolexpr.Pred(attr, predicate.Lt, lo),
				boolexpr.Pred(attr, predicate.Gt, hi),
			)
		}
		attrs = first
		in.filters = append(in.filters, boolexpr.NewAnd(pairs...))
		in.stable = append(in.stable, i)
	}
	for e := 0; e < baseEvents; e++ {
		ev := event.New()
		for a := 0; a < attrs; a++ {
			ev = ev.Set(workload.Attr(a), rng.Int63n(domain))
		}
		in.events = append(in.events, ev)
	}
	in.solve(seed)
	return in
}

// C1-style nested band filters (the covering experiment's pool): filter r
// of a pool is cat = r%16 ∧ price < 10·width with width shrinking as r
// grows, so within a category every filter covers all higher ranks.
// Ranks are drawn Zipf(1.1), making broad filters popular.
const (
	bandCategories = 16
	churnPool      = 256
	churnStable    = 1000
	churnDraws     = 4096
	// churnPriceSpan widens the event price range past the broadest band
	// so that a band matches an eighth of its category's events at most,
	// keeping deliveries per event far below fanout's.
	churnPriceSpan = 8
)

func bandFilter(rank int) boolexpr.Expr {
	levels := churnPool/bandCategories + 1
	width := levels - rank/bandCategories
	return boolexpr.NewAnd(
		boolexpr.Pred("cat", predicate.Eq, int64(rank%bandCategories)),
		boolexpr.Pred("price", predicate.Lt, int64(10*width)),
	)
}

func genChurn(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for r := 0; r < churnPool; r++ {
		in.filters = append(in.filters, bandFilter(r))
	}
	z := rand.NewZipf(rng, 1.1, 1, churnPool-1)
	for i := 0; i < churnStable; i++ {
		in.stable = append(in.stable, int(z.Uint64()))
	}
	for i := 0; i < churnDraws; i++ {
		in.churn = append(in.churn, int(z.Uint64()))
	}
	// The Zipf draw piles subscribers onto the broad filters of category 0,
	// so a seed with a few more low-priced category-0 events would deliver
	// far more than another. Events are therefore stratified: the 256 base
	// events hold every (category, price sixteenth) pair once, laid out so
	// that each run of 16 consecutive events, one publish batch, holds
	// every category and every price sixteenth once. Only the price within
	// its sixteenth is drawn.
	levels := churnPool/bandCategories + 1
	step := 10 * levels * churnPriceSpan / bandCategories
	for e := 0; e < baseEvents; e++ {
		cat, stratum := e%bandCategories, (e+e/bandCategories)%bandCategories
		in.events = append(in.events, event.New().
			Set("cat", int64(cat)).
			Set("price", int64(stratum*step+rng.Intn(step))))
	}
	in.solve(seed)
	return in
}
