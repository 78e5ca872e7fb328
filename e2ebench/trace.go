package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"noncanon/internal/boolexpr"
	"noncanon/internal/broker"
	"noncanon/internal/core"
	"noncanon/internal/cover"
	"noncanon/internal/event"
	"noncanon/internal/index"
	"noncanon/internal/matcher"
	"noncanon/internal/netoverlay"
	"noncanon/internal/predicate"
	"noncanon/internal/sublang"
	"noncanon/internal/wire"
)

// span is one timed call, made from the benchmark's own code around a
// call into a layer. Trace is the event seq the call served, or -1-i for
// the set-up of subscription i.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Run    string `json:"run"` // "tcp" (the traced run's clock) or "replay"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; later calls are still timed.
const maxSpans = 1 << 18

// tcpSampleEvery is the seq stride of events whose deliveries get spans
// in the traced TCP run.
const tcpSampleEvery = 16

// tracer records spans in memory and the per-call timings of the traced
// TCP run.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64

	decodeNs []int64 // subscriber-side wire.ReadEventAlias, reader goroutine only
}

// reserve returns a span ID for a parent whose span is added once its
// children have ended.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(parent, trace int64, name, run string, start, end int64) int64 {
	return t.addID(t.reserve(), parent, trace, name, run, start, end)
}

func (t *tracer) addID(id, parent, trace int64, name, run string, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Run: run, Start: start, End: end})
	}
	return id
}

// acked records an open-loop publish request of the traced TCP run.
func (t *tracer) acked(tr *tracker, seq, start, end int64) {
	if tr.recording.Load() {
		t.add(0, seq, "client.publish", "tcp", start, end)
	}
}

// decoded records one delivery's decode at the subscriber connection, and
// a sample of the open loop's deliveries as spans.
func (t *tracer) decoded(tr *tracker, seq, t0, now int64) {
	t.decodeNs = append(t.decodeNs, now-t0)
	if seq%tcpSampleEvery == 0 && tr.recording.Load() && seq < tr.published.Load() {
		id := t.add(0, seq, "client.deliver", "tcp", tr.start[seq], now)
		t.add(id, seq, "wire.decode", "tcp", t0, now)
	}
}

// countingConn counts the reads and bytes of the subscriber connection.
type countingConn struct {
	net.Conn
	reads, bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// replayEvents is how many events the in-process replay publishes per pass.
const replayEvents = 2 * baseEvents

// traced runs the workload untraced and traced over TCP, each for half of
// seconds, then replays the same inputs through each layer's public
// functions in process, and reports the per-layer metrics.
func traced(sp *spec, in *inputs, prop property, seconds float64, seed int64, dir string, w io.Writer) (summary, error) {
	plain, err := run(sp, in, runConfig{seconds: seconds / 2})
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintln(w, "untraced run:")
	s := check(sp, prop, plain, w)
	t := &tracer{}
	res, err := run(sp, in, runConfig{seconds: seconds / 2, trace: t, wrap: func(nc net.Conn) net.Conn {
		return &countingConn{Conn: nc}
	}})
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintln(w, "traced run:")
	ts := check(sp, prop, res, w)
	s.Correct = s.Correct && ts.Correct
	s.Attempted += ts.Attempted
	s.Failed += ts.Failed

	rp, err := replay(sp, in, t)
	if err != nil {
		return summary{}, err
	}
	fr, err := fedReplay(in)
	if err != nil {
		return summary{}, err
	}
	m := perLayer(sp, plain, res, rp, fr, t)
	s.Metrics = m
	printLayers(w, sp, plain, rp, t)
	printMetrics(w, m, plain)
	path, err := writeSpans(dir, sp, seed, t)
	if err != nil {
		return summary{}, err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(t.spans), path)
	return s, nil
}

// replayResult holds the per-call timings of the in-process replay, in ns.
type replayResult struct {
	parse, key, engSub      []int64
	brSub, brUnsub          []int64
	idxMatch, phase2, match []int64
	matchGMP1               []int64
	encode                  []int64
	publish, publishGMP1    []int64 // per event
	queueWait               []int64 // per delivery
	fulfilled, candidates   float64 // per event
	leaves, matches         float64 // per event
	deliveries              float64 // per event, from Publish's return values
	distinct, frontier, cov float64 // shares of subscriptions
}

// replay times the calls into each layer on the workload's inputs: the
// subscription write path, phase one and two on a standalone engine,
// wire encoding, and broker Subscribe/Publish/Unsubscribe with the
// workload's options, publishing one request at a time and waiting for
// its deliveries so that queue wait is the broker's own hand-off.
func replay(sp *spec, in *inputs, t *tracer) (*replayResult, error) {
	rp := &replayResult{}
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	timed := func(parent, trace int64, name string, fn func()) int64 {
		s := now()
		fn()
		e := now()
		t.add(parent, trace, name, "replay", s, e)
		return e - s
	}

	// Subscription write path, once per stable subscription.
	reg := predicate.NewRegistry()
	idx := index.New()
	eng := core.New(reg, idx, sp.opts.Engine)
	exprs := make([]boolexpr.Expr, len(in.stable))
	for i, f := range in.stable {
		var err error
		var expr boolexpr.Expr
		root, id, trace := now(), t.reserve(), -1-int64(i)
		rp.parse = append(rp.parse, timed(id, trace, "sublang.parse", func() { expr, err = sublang.Parse(in.texts[f]) }))
		if err != nil {
			return nil, fmt.Errorf("replay parse %q: %w", in.texts[f], err)
		}
		exprs[i] = expr
		rp.key = append(rp.key, timed(id, trace, "cover.key", func() { _ = cover.Key(expr) }))
		rp.engSub = append(rp.engSub, timed(id, trace, "core.subscribe", func() { _, err = eng.Subscribe(expr) }))
		if err != nil {
			return nil, fmt.Errorf("replay engine subscribe: %w", err)
		}
		t.addID(id, 0, trace, "replay.subscription", "replay", root, now())
	}

	// Phase one, phase two and the whole match, per event.
	var fulfilled []predicate.ID
	var out []matcher.SubID
	var buf []byte
	for seq := int64(0); seq < replayEvents; seq++ {
		ev := in.event(seq)
		root, id := now(), t.reserve()
		rp.encode = append(rp.encode, timed(id, seq, "wire.encode", func() { buf = wire.AppendEvent(buf[:0], ev) }))
		var derr error
		timed(id, seq, "wire.decode", func() { _, _, derr = wire.ReadEventAlias(buf) })
		if derr != nil {
			return nil, fmt.Errorf("replay decode: %w", derr)
		}
		rp.idxMatch = append(rp.idxMatch, timed(id, seq, "index.match", func() { fulfilled = idx.Match(ev, fulfilled[:0]) }))
		var ids []matcher.SubID
		rp.phase2 = append(rp.phase2, timed(id, seq, "core.phase2", func() { ids = eng.MatchPredicates(fulfilled) }))
		rp.match = append(rp.match, timed(id, seq, "core.match", func() { out = eng.MatchInto(ev, out[:0]) }))
		t.addID(id, 0, seq, "replay.event", "replay", root, now())
		leaves, evals := eng.InstrumentedMatch(fulfilled)
		rp.fulfilled += float64(len(fulfilled))
		rp.matches += float64(len(ids))
		rp.leaves += float64(leaves)
		rp.candidates += float64(evals)
	}
	rp.fulfilled /= replayEvents
	rp.matches /= replayEvents
	rp.leaves /= replayEvents
	rp.candidates /= replayEvents
	procs := runtime.GOMAXPROCS(1)
	for seq := int64(0); seq < replayEvents; seq++ {
		ev := in.event(seq)
		s := now()
		out = eng.MatchInto(ev, out[:0])
		rp.matchGMP1 = append(rp.matchGMP1, now()-s)
	}
	runtime.GOMAXPROCS(procs)

	// The broker with the workload's options.
	b := broker.New(sp.opts)
	defer b.Close()
	pubStart := make([]atomic.Int64, 2*replayEvents)
	var waitMu sync.Mutex
	var waits []int64
	var got atomic.Int64
	arrived := make(chan struct{}, 1)
	handler := func(ev event.Event) {
		t1 := now()
		v, _ := ev.Get("seq")
		waitMu.Lock()
		waits = append(waits, t1-pubStart[v.Int()].Load())
		waitMu.Unlock()
		got.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
	}
	subs := make([]*broker.Subscription, len(exprs))
	for i, expr := range exprs {
		var err error
		rp.brSub = append(rp.brSub, timed(0, -1-int64(i), "broker.subscribe", func() { subs[i], err = b.Subscribe(expr, handler) }))
		if err != nil {
			return nil, fmt.Errorf("replay broker subscribe: %w", err)
		}
	}
	st := b.Stats()
	n := float64(st.Subscriptions)
	rp.distinct, rp.frontier, rp.cov = float64(st.DistinctFilters)/n, float64(st.FrontierFilters)/n, float64(st.CoveredSubscribers)/n

	// publishPass publishes seqs [from, from+replayEvents) one request at a
	// time, waiting for each request's deliveries.
	publishPass := func(from int64, record bool) ([]int64, error) {
		var per []int64
		evs := make([]event.Event, 0, sp.batch)
		for seq := from; seq < from+replayEvents; seq += int64(sp.batch) {
			evs = evs[:0]
			for i := int64(0); i < int64(sp.batch); i++ {
				evs = append(evs, in.event(seq+i))
			}
			want := got.Load()
			s := now()
			for i := range evs {
				pubStart[seq+int64(i)].Store(s)
			}
			var counts []int
			var err error
			if sp.batch == 1 {
				var c int
				c, err = b.Publish(evs[0])
				counts = []int{c}
			} else {
				counts, err = b.PublishBatch(evs)
			}
			e := now()
			if err != nil {
				return nil, fmt.Errorf("replay publish: %w", err)
			}
			id := t.reserve()
			t.add(id, seq, "broker.publish", "replay", s, e)
			for _, c := range counts {
				want += int64(c)
				if record {
					rp.deliveries += float64(c)
				}
				per = append(per, (e-s)/int64(len(evs)))
			}
			deadline := time.Now().Add(drainTimeout)
			for got.Load() < want && time.Now().Before(deadline) {
				select {
				case <-arrived:
				case <-time.After(time.Millisecond):
				}
			}
			if got.Load() < want {
				return nil, fmt.Errorf("replay: %d deliveries never arrived", want-got.Load())
			}
			last := now()
			t.add(id, seq, "broker.handoff", "replay", e, last)
			t.addID(id, 0, seq, "replay.request", "replay", s, last)
		}
		return per, nil
	}
	if _, err := publishPass(0, false); err != nil { // warm
		return nil, err
	}
	waits = waits[:0]
	var err error
	if rp.publish, err = publishPass(0, true); err != nil {
		return nil, err
	}
	rp.deliveries /= replayEvents
	waitMu.Lock()
	rp.queueWait = append(rp.queueWait, waits...)
	waitMu.Unlock()
	procs = runtime.GOMAXPROCS(1)
	rp.publishGMP1, err = publishPass(replayEvents, false)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	for i, sub := range subs {
		rp.brUnsub = append(rp.brUnsub, timed(0, -1-int64(i), "broker.unsubscribe", func() { err = sub.Unsubscribe() }))
		if err != nil {
			return nil, fmt.Errorf("replay unsubscribe: %w", err)
		}
	}
	return rp, nil
}

func p50(xs []int64) float64 { return percentile(xs, 0.50) }

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// perLayer derives the per-layer metrics. plain is the untraced run of
// the same invocation, res the traced one.
func perLayer(sp *spec, plain, res *result, rp *replayResult, fr fedResult, t *tracer) map[string]metric {
	ev := float64(plain.measuredEvents)
	m := map[string]metric{
		"broker.queue_wait_p50_us":       {us(p50(rp.queueWait)), "us"},
		"broker.queue_wait_p99_us":       {us(percentile(rp.queueWait, 0.99)), "us"},
		"broker.publish_p50_us":          {us(p50(rp.publish)), "us"},
		"broker.publish_p99_us":          {us(percentile(rp.publish, 0.99)), "us"},
		"broker.publish_us_gmp1":         {us(p50(rp.publishGMP1)), "us"},
		"broker.goroutines_per_sub":      {median(plain.goroPer), "count"},
		"broker.deliveries_per_event":    {rp.deliveries, "count"},
		"broker.dropped":                 {float64(res.end.dropped - res.start.dropped), "count"},
		"broker.subscribe_us":            {us(p50(rp.brSub)), "us"},
		"broker.unsubscribe_us":          {us(p50(rp.brUnsub)), "us"},
		"wire.encode_ns":                 {p50(rp.encode), "ns"},
		"wire.decode_ns":                 {p50(t.decodeNs), "ns"},
		"sublang.parse_us":               {us(p50(rp.parse)), "us"},
		"cover.key_us":                   {us(p50(rp.key)), "us"},
		"core.subscribe_us":              {us(p50(rp.engSub)), "us"},
		"index.match_us":                 {us(p50(rp.idxMatch)), "us"},
		"index.fulfilled_per_event":      {rp.fulfilled, "count"},
		"core.phase2_us":                 {us(p50(rp.phase2)), "us"},
		"core.match_us":                  {us(p50(rp.match)), "us"},
		"core.match_us_gmp1":             {us(p50(rp.matchGMP1)), "us"},
		"core.candidates_per_event":      {rp.candidates, "count"},
		"core.leaves_per_event":          {rp.leaves, "count"},
		"core.match_ratio":               {rp.matches / rp.candidates, "ratio"},
		"cover.distinct_ratio":           {rp.distinct, "ratio"},
		"cover.frontier_ratio":           {rp.frontier, "ratio"},
		"cover.covered_sub_share":        {rp.cov, "ratio"},
		"process.cpu_us_per_event":       {us(float64(plain.cpu)) / ev, "us"},
		"process.alloc_bytes_per_event":  {float64(plain.allocBytes) / ev, "B"},
		"process.gc_per_kevent":          {float64(plain.gcs) * 1000 / ev, "count"},
		"loadgen.late_p99_us":            {us(medianOf(plain.lateQ, quant.tail)), "us"},
		"trace.overhead_us":              {us(medianOf(res.deliverQ, quant.mid) - medianOf(plain.deliverQ, quant.mid)), "us"},
		"trace.residual_us":              {us(medianOf(plain.deliverQ, quant.mid) - blockingPath(rp, t)), "us"},
		"netbroker.transport_us":         {us(medianOf(res.ackQ, quant.mid) - p50(rp.publish)*float64(sp.batch)), "us"},
		"netoverlay.forwarded_per_event": {fr.forwarded, "count"},
		"netoverlay.shed":                {float64(fr.shed), "count"},
		"netoverlay.deliver_p50_us":      {us(fr.deliver.p50), "us"},
		"router.sub_msgs_per_sub":        {fr.subMsgs, "count"},
	}
	for name, v := range ungated(plain) {
		m[name] = v
	}
	var reads, frames, bytes float64
	if d := float64(res.measuredDeliveries); d > 0 {
		reads = float64(res.end.reads-res.start.reads) / d
		frames = float64(res.end.frames-res.start.frames) / d
		bytes = float64(res.end.bytes-res.start.bytes) / d
	}
	m["netbroker.reads_per_delivery"] = metric{reads, "count"}
	m["netbroker.frames_per_delivery"] = metric{frames, "count"}
	m["wire.bytes_per_delivery"] = metric{bytes, "B"}
	return m
}

// blockingPath sums the per-layer medians on a delivery's blocking path:
// the publisher encodes, the server decodes, the broker matches and hands
// off (queue wait runs from Publish's start to the handler), the server
// encodes the delivery and the subscriber decodes it.
func blockingPath(rp *replayResult, t *tracer) float64 {
	return 2*p50(rp.encode) + 2*p50(t.decodeNs) + p50(rp.queueWait)
}

// fedResult holds the federation replay's figures.
type fedResult struct {
	forwarded float64 // event copies sent over links per event
	subMsgs   float64 // subscription floods per subscription
	shed      uint64
	deliver   quant // publish at A to the far handler
}

// fedReplay routes the workload through three netoverlay brokers in a
// line, A - B - C over loopback TCP, with the stable population homed
// alternately at B and C. It publishes the replay's events at A one at a
// time, waits for each event's deliveries, and checks them against the
// oracle. A federation has no netbroker front end, so this is where the
// router and netoverlay layers are measured.
func fedReplay(in *inputs) (fedResult, error) {
	tr := newTracker(in, len(in.stable), replayEvents, 2)
	sys, err := startFed(in, tr)
	if err != nil {
		return fedResult{}, err
	}
	defer sys.close()
	for i := range in.stable {
		if err := sys.subscribe(i); err != nil {
			return fedResult{}, fmt.Errorf("federation subscribe %d: %w", i, err)
		}
	}
	if err := sys.settle(); err != nil {
		return fedResult{}, err
	}
	// Let settle's last probes finish crossing the links before counting.
	netoverlay.Settle(50*time.Millisecond, sys.nodes[:]...)
	s0 := sys.sysStats()
	tr.beginWindows(1, time.Hour)
	for seq := int64(0); seq < replayEvents; seq++ {
		tr.next(1, tr.now())
		if _, err := sys.publish([]event.Event{in.event(seq)}); err != nil {
			return fedResult{}, err
		}
		tr.replied(seq, nil, 0)
		deadline := time.Now().Add(drainTimeout)
		for tr.completed.Load() <= seq && time.Now().Before(deadline) {
			select {
			case <-tr.wake:
			case <-time.After(time.Millisecond):
			}
		}
	}
	s1 := sys.sysStats()
	if err := tr.err(); err != nil {
		return fedResult{}, fmt.Errorf("federation: %w", err)
	}
	if missing := tr.missing(); missing > 0 {
		return fedResult{}, fmt.Errorf("federation: %d deliveries never arrived", missing)
	}
	var h hist
	for _, l := range tr.lanes {
		h.merge(&l.lat[0])
	}
	return fedResult{
		forwarded: float64(s1.forwarded-s0.forwarded) / replayEvents,
		subMsgs:   float64(s0.subMsgs) / float64(len(in.stable)),
		shed:      s1.shed - s0.shed,
		deliver:   h.summarize(),
	}, nil
}

// printLayers prints the per-layer table: each layer's busy time per
// published event, from the replay's mean call times weighted by how often
// the measured phases make each call, and the blocking-path sum against
// the untraced delivery median.
func printLayers(w io.Writer, sp *spec, plain *result, rp *replayResult, t *tracer) {
	ev := float64(plain.measuredEvents)
	subOps := float64(plain.churnOps) / ev // subscription requests per event
	d := rp.deliveries
	aggregates := sp.opts.Aggregate || sp.opts.AggregateDAG
	keyWeight := 0.0
	if aggregates {
		keyWeight = subOps
	}
	pos := func(x float64) float64 { return max(x, 0) }
	type row struct {
		layer string
		us    float64
		what  string
	}
	rows := []row{
		{"wire", (1 + d) * (mean(rp.encode) + mean(t.decodeNs)) / 1e3, "encode+decode x (1 + deliveries)"},
		{"index", mean(rp.idxMatch) / 1e3, "phase one"},
		{"core", (mean(rp.phase2) + subOps*mean(rp.engSub)) / 1e3, "phase two + engine subscribe"},
		{"broker", (pos(mean(rp.publish)-mean(rp.match)) + subOps*pos(mean(rp.brSub)-mean(rp.engSub))) / 1e3, "publish minus match, subscribe minus engine"},
		{"sublang", subOps * mean(rp.parse) / 1e3, "parse per subscription request"},
		{"cover", keyWeight * mean(rp.key) / 1e3, "cover.Key per aggregated subscribe"},
	}
	total := 0.0
	for _, r := range rows {
		total += r.us
	}
	fmt.Fprintf(w, "per-layer busy time per event (%.3f subscription requests and %.1f deliveries per event):\n", subOps, d)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %10.2f us %6.1f%%  %s\n", r.layer, r.us, 100*r.us/total, r.what)
	}
	bp := blockingPath(rp, t)
	dp50 := medianOf(plain.deliverQ, quant.mid)
	fmt.Fprintf(w, "blocking path: 2 x wire.encode %.2f + 2 x wire.decode %.2f + broker.queue_wait %.2f = %.2f us",
		p50(rp.encode)/1e3, p50(t.decodeNs)/1e3, p50(rp.queueWait)/1e3, bp/1e3)
	fmt.Fprintf(w, "; untraced deliver_p50 %.2f us; residual %.2f us (%.0f%%: sockets, scheduling and queueing under load)\n",
		dp50/1e3, (dp50-bp)/1e3, 100*(dp50-bp)/dp50)
	fmt.Fprintf(w, "span self time by name:\n")
	for _, r := range selfTimes(t.spans) {
		fmt.Fprintf(w, "  %-22s %-6s %8d spans  self p50 %10.2f us  mean %10.2f us\n", r.name, r.run, r.n, r.p50/1e3, r.mean/1e3)
	}
}

type selfRow struct {
	name, run string
	n         int
	p50, mean float64
}

// selfTimes computes each span's self time — its duration minus the part
// its children cover — and summarises it by span name.
func selfTimes(spans []span) []selfRow {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct{ name, run string }
	self := map[key][]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[key{s.Name, s.Run}] = append(self[key{s.Name, s.Run}], s.End-s.Start-covered)
	}
	var rows []selfRow
	for k, xs := range self {
		rows = append(rows, selfRow{k.name, k.run, len(xs), p50(xs), mean(xs)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].run != rows[j].run {
			return rows[i].run < rows[j].run
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// writeSpans writes the spans and the host record as JSON.
func writeSpans(dir string, sp *spec, seed int64, t *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	host, _ := os.Hostname()
	doc := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Host       string `json:"host"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Spans      []span `json:"spans"`
	}{sp.name, seed, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), t.spans}
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
