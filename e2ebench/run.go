package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"

	"noncanon/internal/event"
)

// drainTimeout bounds how long a phase waits for its last deliveries.
const drainTimeout = 3 * time.Second

// warmup is the untimed closed-loop phase that fills caches and pools
// before the first measured phase.
const warmup = time.Second

// result is everything one run measured. Latencies (ns) are summarised
// per group: one group per set-up for subscription requests, and one per
// one-second window of a measured phase for everything else. Metrics
// report the median over groups of each group's percentile, so a
// disturbance of the host that hits one window moves one group, not the
// figure.
type result struct {
	setupS    []float64 // per set-up
	memPerSub []float64 // per set-up, bytes
	goroPer   []float64 // per set-up, goroutines per subscription

	subQ       []quant   // per set-up, then per window for churn requests
	ackQ       []quant   // per window: open-loop publish requests
	deliverQ   []quant   // per window: open-loop deliveries
	lateQ      []quant   // per window: open-loop generator oversleep
	throughput []float64 // per window: closed loop, events/s

	openReqs                int
	closedEvents            int64
	churnOps                int
	churnSeconds            float64
	publishReqs, failedReqs int64
	expectedDeliveries      int64
	missing                 int64
	delivered               int64
	unexpected, duplicates  int64
	mismatched              int64
	start, end              sysStats // around the measured phases
	cpu                     time.Duration
	allocBytes, gcs         uint64
	measuredEvents          int64
	measuredDeliveries      int64 // every delivery decoded in the measured phases
	err                     error
}

// runConfig is how long and how a run measures.
type runConfig struct {
	seconds float64
	trace   *tracer
	wrap    func(net.Conn) net.Conn // wraps the subscriber connection
}

// windowSeconds is the length of the windows each measured phase is cut
// into for its statistics.
const windowSeconds = 1.0

func memInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives one workload: repeated set-ups, a warm-up, the open-loop
// phase and the closed-loop phase, each half of the measured time, then
// the oracle's final accounting. The two phases stay apart because the
// saturated closed loop leaves collection work and queues behind that
// would spill into open-loop measurements interleaved with it.
func run(sp *spec, in *inputs, cfg runConfig) (*result, error) {
	res := &result{}
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	wins := max(1, int(cfg.seconds/2/windowSeconds+0.5))
	maxSubs := len(in.stable)
	if sp.churnRate > 0 {
		maxSubs += int(sp.churnRate*cfg.seconds) + 1
	}
	maxEvents := int(sp.rate*cfg.seconds*5) + 1<<16
	tr := newTracker(in, maxSubs, maxEvents, 2)
	tr.trace = cfg.trace

	var sys *netSystem
	for k := 0; k < sp.setups; k++ {
		tr.reset()
		var err error
		if sys, err = startNet(sp, in, tr, cfg.wrap); err != nil {
			return nil, err
		}
		lat := make([]int64, 0, len(in.stable))
		m0, g0 := memInUse(), runtime.NumGoroutine()
		t0 := time.Now()
		for i := range in.stable {
			s := time.Now()
			if err := sys.subscribe(i); err != nil {
				sys.close()
				return nil, fmt.Errorf("set-up subscribe %d: %w", i, err)
			}
			lat = append(lat, int64(time.Since(s)))
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		m1, g1 := memInUse(), runtime.NumGoroutine()
		res.memPerSub = append(res.memPerSub, (float64(m1)-float64(m0))/float64(len(in.stable)))
		res.goroPer = append(res.goroPer, float64(g1-g0)/float64(len(in.stable)))
		res.subQ = append(res.subQ, summarize(lat))
		if k < sp.setups-1 {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("set-up close: %w", err)
			}
		}
	}
	defer sys.close()

	p := &publisher{sp: sp, in: in, sys: sys, tr: tr, res: res}
	p.closedLoop(warmup, 1)
	if left := tr.drain(drainTimeout); left != 0 {
		tr.fail("%d warm-up events never completed", left)
	}

	res.start = sys.sysStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	seq0, d0 := tr.published.Load(), tr.delivered.Load()
	tr.beginWindows(wins, half)
	churn := startChurn(sp, in, sys.sub, tr)
	ack, late := p.openLoop(half)
	churn.stop(res)
	tr.drain(drainTimeout)
	tr.recording.Store(false)
	for w := 0; w < wins; w++ {
		var deliver hist
		for _, l := range tr.lanes {
			deliver.merge(&l.lat[w])
		}
		res.ackQ = append(res.ackQ, summarize(ack[w]))
		res.lateQ = append(res.lateQ, summarize(late[w]))
		res.deliverQ = append(res.deliverQ, deliver.summarize())
	}
	res.throughput = p.closedLoop(half, wins)
	tr.drain(drainTimeout)
	res.cpu = cpuTime() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcs = uint64(ms1.NumGC - ms0.NumGC)
	res.measuredEvents = tr.published.Load() - seq0
	res.measuredDeliveries = tr.delivered.Load() - d0

	res.end = sys.sysStats()
	res.expectedDeliveries = tr.expectedDeliveries(0, tr.published.Load())
	res.missing = tr.missing()
	res.delivered = tr.delivered.Load()
	res.unexpected = tr.unexpected.Load()
	res.duplicates = tr.duplicate.Load()
	res.mismatched = tr.mismatched.Load()
	if res.err == nil {
		res.err = tr.err()
	}
	if short := tr.short.Load(); short > 0 && res.end.dropped == 0 && res.err == nil {
		res.err = fmt.Errorf("%d publish replies counted fewer deliveries than the oracle, yet the broker dropped none", short)
	}
	if res.missing > 0 && int64(res.end.dropped) < res.missing {
		res.err = fmt.Errorf("%d stable deliveries missing but the broker dropped only %d", res.missing, res.end.dropped)
	}
	return res, nil
}

// publisher is the one goroutine that issues publish requests.
type publisher struct {
	sp  *spec
	in  *inputs
	sys *netSystem
	tr  *tracker
	res *result
}

// batch builds the events of the next request.
func (p *publisher) batch(evs []event.Event) []event.Event {
	seq := p.tr.published.Load()
	evs = evs[:0]
	for i := 0; i < p.sp.batch; i++ {
		evs = append(evs, p.in.event(seq+int64(i)))
	}
	return evs
}

// send publishes evs, registered at latency origin start, and returns the
// reply time.
func (p *publisher) send(evs []event.Event, start int64) (int64, bool) {
	seq := p.tr.next(len(evs), start)
	if seq < 0 {
		return 0, false
	}
	counts, err := p.sys.publish(evs)
	end := p.tr.now()
	p.res.publishReqs++
	if err != nil {
		p.res.failedReqs++
		p.tr.fail("publish seq %d: %v", seq, err)
		return end, true
	}
	if p.tr.trace != nil {
		p.tr.trace.acked(p.tr, seq, start, end)
	}
	p.tr.replied(seq, counts, p.sp.churnLive)
	return end, true
}

// openLoop publishes at the workload's mean rate, with Poisson arrivals,
// for d from the start of the tracker's windows, and returns, per window,
// the requests' latencies and the generator's lateness. A request's
// latency runs from its due time, or from the generator's last timer
// wake-up if that was later: the timer's oversleep is the generator's
// fault, not the system's, and is reported separately as late. A request
// that falls due while the previous one still waits for its reply keeps
// its due time, so a stall is charged to every request it delays.
func (p *publisher) openLoop(d time.Duration) (ack, late [][]int64) {
	interval := float64(p.sp.batch) / p.sp.rate * float64(time.Second)
	t0 := p.tr.winStart
	ack, late = make([][]int64, p.tr.wins), make([][]int64, p.tr.wins)
	var lastWake int64
	var evs []event.Event
	due := t0
	for k := 0; ; k++ {
		due += int64(p.in.gaps[k%len(p.in.gaps)] * interval)
		if due >= t0+int64(d) {
			return ack, late
		}
		evs = p.batch(evs)
		if wait := due - p.tr.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
			lastWake = p.tr.now()
		}
		start := max(due, lastWake)
		w := p.tr.window(start)
		late[w] = append(late[w], start-due)
		end, ok := p.send(evs, start)
		if !ok {
			p.tr.fail("event table full in the open loop")
			return ack, late
		}
		ack[w] = append(ack[w], end-start)
		p.res.openReqs++
	}
}

// closedLoop keeps sp.window events in flight for d and returns the rate
// at which events completed end to end in each of n equal windows.
func (p *publisher) closedLoop(d time.Duration, n int) []float64 {
	stop := make(chan struct{})
	done := make([]int64, n+1)
	at := make([]time.Time, n+1)
	done[0], at[0] = p.tr.completed.Load(), time.Now()
	lost := p.tr.published.Load() - done[0] // earlier events that never completed
	go func() {
		defer close(stop)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(at[0].Add(d * time.Duration(k) / time.Duration(n))))
			done[k], at[k] = p.tr.completed.Load(), time.Now()
		}
	}()
	var evs []event.Event
	for p.tr.waitWindow(p.sp.window-p.sp.batch+1, lost, stop) {
		select {
		case <-stop:
		default:
			evs = p.batch(evs)
			if _, ok := p.send(evs, p.tr.now()); !ok {
				p.tr.fail("event table full in the closed loop")
				<-stop
			}
			continue
		}
		break
	}
	<-stop
	rates := make([]float64, n)
	for k := 1; k <= n; k++ {
		rates[k-1] = float64(done[k]-done[k-1]) / at[k].Sub(at[k-1]).Seconds()
	}
	p.res.closedEvents += done[n] - done[0]
	return rates
}

// churnIssuer subscribes and unsubscribes on the subscriber connection at
// the workload's mean churn rate, with Poisson arrivals, beside the
// open-loop publisher. It sits
// out the closed loop, which saturates the host: an open-loop issuer the
// system cannot keep up with measures only its own backlog.
type churnIssuer struct {
	tr   *tracker
	quit chan struct{}
	done chan struct{}
	lat  [][]int64 // per open-loop window
	ops  int
	secs float64
	err  error
}

func startChurn(sp *spec, in *inputs, sub *subConn, tr *tracker) *churnIssuer {
	c := &churnIssuer{tr: tr, quit: make(chan struct{}), done: make(chan struct{}), lat: make([][]int64, tr.wins)}
	if sp.churnRate == 0 {
		close(c.done)
		return c
	}
	go func() {
		defer close(c.done)
		interval := float64(time.Second) / sp.churnRate
		t0 := tr.now()
		defer func() { c.secs = float64(tr.now()-t0) / 1e9 }()
		var live []uint64 // churn subscriptions live, oldest first
		var lastWake int64
		due := t0
		for k := 0; ; k++ {
			// Half a cycle away from the publisher's gaps, so the two
			// schedules are independent.
			due += int64(in.gaps[(k+len(in.gaps)/2)%len(in.gaps)] * interval)
			if wait := due - tr.now(); wait > 0 {
				select {
				case <-c.quit:
					return
				case <-time.After(time.Duration(wait)):
				}
				lastWake = tr.now()
			}
			select {
			case <-c.quit:
				return
			default:
			}
			start := max(due, lastWake)
			var err error
			if len(live) < sp.churnLive {
				var h uint64
				if h, err = sub.subscribe(in.churn[c.ops%len(in.churn)], false); err == nil {
					live = append(live, h)
				}
			} else {
				err = sub.unsubscribe(live[0])
				live = live[1:]
			}
			if err != nil {
				c.err = fmt.Errorf("churn: %w", err)
				return
			}
			w := tr.window(start)
			c.lat[w] = append(c.lat[w], tr.now()-start)
			c.ops++
		}
	}()
	return c
}

// stop ends the issuer and adds its requests to res, one group per window.
func (c *churnIssuer) stop(res *result) {
	close(c.quit)
	<-c.done
	if c.err != nil && res.err == nil {
		res.err = c.err
	}
	for _, lat := range c.lat {
		if len(lat) > 0 {
			res.subQ = append(res.subQ, summarize(lat))
		}
	}
	res.churnOps += c.ops
	res.churnSeconds += c.secs
}

// quant summarises one group of latency samples, in ns.
type quant struct {
	p50, p99 float64
	n        int
}

func summarize(xs []int64) quant {
	return quant{p50: percentile(xs, 0.50), p99: percentile(xs, 0.99), n: len(xs)}
}

func (q quant) mid() float64  { return q.p50 }
func (q quant) tail() float64 { return q.p99 }

// medianOf returns the median over non-empty groups of one percentile.
func medianOf(qs []quant, f func(quant) float64) float64 {
	var xs []float64
	for _, q := range qs {
		if q.n > 0 {
			xs = append(xs, f(q))
		}
	}
	return median(xs)
}

func samplesIn(qs []quant) int {
	n := 0
	for _, q := range qs {
		n += q.n
	}
	return n
}

// percentile returns the q-quantile (nearest rank) of xs, sorting xs.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
