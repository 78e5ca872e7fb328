// Command e2ebench is the repository's end-to-end benchmark: it drives a
// real netbroker.Server in this process over loopback TCP, checks every
// delivery against the naive boolexpr oracle, and prints the end-to-end
// metrics of one workload. With -trace 1 it also times the calls into each
// layer's public functions on the same inputs, including a line of
// netoverlay brokers, and prints the per-layer metrics instead. See
// README.md.
//
//	e2ebench -workload fanout -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"noncanon/internal/broker"
)

// spec is one workload: its broker options, its generator and its load.
type spec struct {
	name string
	opts broker.Options
	gen  func(seed int64) *inputs
	// batch is the events per publish request.
	batch int
	// rate is the open-loop publish rate in events/s, calibrated at about
	// half the closed-loop throughput of the unchanged code on a 2-vCPU
	// host (see README.md).
	rate float64
	// window is the closed-loop count of events in flight. It stays below
	// the per-subscription queue, so no subscription can ever have more
	// events queued than its queue holds and a correct broker drops none.
	window int
	// churnRate is the churn requests per second issued beside the
	// publisher; churnLive bounds the churn subscriptions live at once.
	churnRate float64
	churnLive int
	// setups is how many times a run builds the population from an empty
	// server; set-up metrics are their medians.
	setups int
}

var specs = []*spec{
	{name: "fanout", gen: genFanout, batch: 1, rate: 220, window: 32, setups: 9},
	{name: "match", gen: genMatch, batch: 1, rate: 90, window: 32, setups: 5},
	{name: "churn", gen: genChurn, opts: broker.Options{AggregateDAG: true},
		batch: 16, rate: 4000, window: 48, churnRate: 1000, churnLive: 64, setups: 9},
}

func lookup(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fanout, match or churn")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 10, "measured seconds, split between the open and the closed loop")
		trace   = fs.Int("trace", 0, "1: run traced and print the per-layer metrics")
		spans   = fs.String("spans", ".bench_build/e2ebench-spans", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := lookup(*name)
	if sp == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload fanout|match|churn, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	host, _ := os.Hostname()
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%g trace=%d\n", sp.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host=%s nproc=%d GOMAXPROCS=%d go=%s\n", host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	in := sp.gen(*seed)
	prop, err := measureProperty(sp, in)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	var s summary
	if *trace == 1 {
		s, err = traced(sp, in, prop, *seconds, *seed, *spans, stdout)
	} else {
		s, err = untraced(sp, in, prop, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !s.Correct {
		return 1
	}
	return 0
}

// untraced runs the workload and reports its end-to-end metrics.
func untraced(sp *spec, in *inputs, prop property, seconds float64, w io.Writer) (summary, error) {
	res, err := run(sp, in, runConfig{seconds: seconds})
	if err != nil {
		return summary{}, err
	}
	s := check(sp, prop, res, w)
	s.Metrics = endToEnd(res)
	printMetrics(w, s.Metrics, res)
	fmt.Fprintln(w, "not gated:")
	printMetrics(w, ungated(res), res)
	return s, nil
}

// check prints the oracle's verdict and the workload property, and fills
// the summary's accounting.
func check(sp *spec, prop property, res *result, w io.Writer) summary {
	s := summary{Correct: res.err == nil}
	s.Attempted = res.publishReqs + res.expectedDeliveries
	s.Failed = res.failedReqs + res.missing
	fmt.Fprintf(w, "load: open loop at %.0f ev/s in requests of %d (%d requests), then closed loop with window %d (%d events), each in %d windows",
		sp.rate, sp.batch, res.openReqs, sp.window, res.closedEvents, len(res.ackQ))
	if sp.churnRate > 0 {
		fmt.Fprintf(w, "; churn at %.0f req/s beside the open loop (%d requests)", sp.churnRate, res.churnOps)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "workload property: %s\n", prop.describe(sp, res))
	fmt.Fprintf(w, "per window: throughput_ev_s %s; deliver_p99_us %s\n",
		windowList(res.throughput, 1), windowList(p99s(res.deliverQ), 1e3))
	fmt.Fprintf(w, "oracle: %d deliveries checked, %d unexpected, %d duplicate, %d stable missing (broker dropped %d), %d reply counts wrong, %d publish requests failed\n",
		res.delivered, res.unexpected, res.duplicates, res.missing, res.end.dropped, res.mismatched, res.failedReqs)
	fmt.Fprintf(w, "failed_ratio: %d / %d = %g\n", s.Failed, s.Attempted, float64(s.Failed)/float64(s.Attempted))
	if res.err != nil {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", res.err)
	} else {
		fmt.Fprintf(w, "oracle: correct\n")
	}
	return s
}

// endToEnd derives the end-to-end metrics from an untraced run.
func endToEnd(res *result) map[string]metric {
	failed := float64(res.failedReqs+res.missing) / float64(res.publishReqs+res.expectedDeliveries)
	return map[string]metric{
		"setup_s":           {median(res.setupS), "s"},
		"mem_bytes_per_sub": {median(res.memPerSub), "B"},
		"sub_p50_us":        {us(medianOf(res.subQ, quant.mid)), "us"},
		"deliver_p50_us":    {us(medianOf(res.deliverQ, quant.mid)), "us"},
		"throughput_ev_s":   {median(res.throughput), "ev/s"},
		"success_ratio":     {1 - failed, "ratio"},
	}
}

// ungated are the end-to-end figures reported beside the gated metrics and
// recorded in the traced run's per-layer set instead of gated: on a shared
// 2-vCPU host they swing by more than any usable bound between runs of
// the same code (see README.md).
func ungated(res *result) map[string]metric {
	return map[string]metric{
		"e2e.ack_p50_us":     {us(medianOf(res.ackQ, quant.mid)), "us"},
		"e2e.ack_p99_us":     {us(medianOf(res.ackQ, quant.tail)), "us"},
		"e2e.sub_p99_us":     {us(medianOf(res.subQ, quant.tail)), "us"},
		"e2e.deliver_p99_us": {us(medianOf(res.deliverQ, quant.tail)), "us"},
	}
}

func us(ns float64) float64 { return ns / 1e3 }

func p99s(qs []quant) []float64 {
	xs := make([]float64, len(qs))
	for i, q := range qs {
		xs[i] = q.p99
	}
	return xs
}

func windowList(xs []float64, div float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f", x/div)
	}
	return b.String()
}

// samples gives an end-to-end metric's sample count for the report.
func samples(name string, res *result) string {
	n := strings.TrimPrefix(name, "e2e.")
	switch {
	case n == "setup_s", n == "mem_bytes_per_sub":
		return fmt.Sprintf("%d set-ups", len(res.setupS))
	case strings.HasPrefix(n, "sub_"):
		return fmt.Sprintf("%d requests in %d groups", samplesIn(res.subQ), len(res.subQ))
	case strings.HasPrefix(n, "ack_"):
		return fmt.Sprintf("%d requests in %d windows", samplesIn(res.ackQ), len(res.ackQ))
	case strings.HasPrefix(n, "deliver_"):
		return fmt.Sprintf("%d deliveries in %d windows", samplesIn(res.deliverQ), len(res.deliverQ))
	case n == "throughput_ev_s":
		return fmt.Sprintf("%d events in %d windows", res.closedEvents, len(res.throughput))
	}
	return ""
}

func printMetrics(w io.Writer, ms map[string]metric, res *result) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", n, m.Value, m.Unit, samples(n, res))
	}
}
