package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fingerprint renders everything a seed determines: filters, populations,
// events, arrival gaps and the oracle's counts.
func fingerprint(in *inputs) string {
	var b strings.Builder
	fmt.Fprintln(&b, in.texts, in.stable, in.churn, in.expect, in.gaps)
	for _, ev := range in.events {
		fmt.Fprintln(&b, ev)
	}
	return b.String()
}

func TestGenerationIsSeeded(t *testing.T) {
	for _, sp := range specs {
		a, b, c := fingerprint(sp.gen(7)), fingerprint(sp.gen(7)), fingerprint(sp.gen(8))
		if a != b {
			t.Errorf("%s: seed 7 generated two different workloads", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same workload", sp.name)
		}
	}
}

// Documented ranges of each workload's property (README.md). A generator
// change that leaves them turns a workload into a different experiment.
func TestWorkloadProperties(t *testing.T) {
	within := func(name string, v, lo, hi float64) {
		t.Helper()
		if v < lo || v > hi {
			t.Errorf("%s = %.3f, documented range [%g, %g]", name, v, lo, hi)
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, sp := range specs {
			p, err := measureProperty(sp, sp.gen(seed))
			if err != nil {
				t.Fatal(err)
			}
			name := func(what string) string { return fmt.Sprintf("%s seed %d %s", sp.name, seed, what) }
			switch sp.name {
			case "fanout":
				within(name("deliveries per event"), p.deliveries, 150, 250)
			case "match":
				within(name("store size"), float64(p.store), matchSubs, matchSubs)
				within(name("fulfilled predicates per event"), p.fulfilled, 8000, 14000)
				within(name("candidates per event"), p.candidates, 6000, 14000)
				within(name("matches per event"), p.matches, 10, 40)
				within(name("deliveries per event"), p.deliveries, 10, 40)
			case "churn":
				within(name("deliveries per event"), p.deliveries, 2, 15)
				within(name("distinct ratio"), p.distinct, 0.1, 0.3)
				within(name("frontier ratio"), p.frontier, 0.005, 0.05)
				within(name("covered share"), p.covered, 0.2, 0.6)
			}
		}
	}
}

// quick returns a copy of the named workload that builds its population
// once, for short test runs.
func quick(name string) *spec {
	sp := *lookup(name)
	sp.setups = 1
	return &sp
}

func TestRunsPassTheOracle(t *testing.T) {
	for _, sp := range specs {
		sp := quick(sp.name)
		t.Run(sp.name, func(t *testing.T) {
			res, err := run(sp, sp.gen(3), runConfig{seconds: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			if res.err != nil {
				t.Fatal(res.err)
			}
			if res.unexpected != 0 || res.duplicates != 0 || res.mismatched != 0 || res.missing != 0 {
				t.Fatalf("oracle: %d unexpected, %d duplicate, %d mismatched, %d missing",
					res.unexpected, res.duplicates, res.mismatched, res.missing)
			}
			if res.delivered == 0 || res.openReqs == 0 || median(res.throughput) <= 0 {
				t.Fatalf("no load: %d delivered, %d open-loop requests, throughput %v",
					res.delivered, res.openReqs, res.throughput)
			}
			if sp.churnRate > 0 && res.churnOps == 0 {
				t.Fatal("churn issued no requests")
			}
		})
	}
}

func TestFederationReplayPassesTheOracle(t *testing.T) {
	fr, err := fedReplay(genFanout(3))
	if err != nil {
		t.Fatal(err)
	}
	// Nearly every stock event matches a subscription at each far broker,
	// so it crosses both links once.
	if fr.forwarded < 1.9 || fr.forwarded > 2 {
		t.Errorf("events forwarded per event = %.3f, documented range [1.9, 2]", fr.forwarded)
	}
	if fr.shed != 0 || fr.deliver.n == 0 {
		t.Errorf("shed %d, %d deliveries timed", fr.shed, fr.deliver.n)
	}
}

func TestOracleRejectsWrongDeliveries(t *testing.T) {
	in := genFanout(1)
	tr := newTracker(in, 4, 1024, 1)
	l := tr.lanes[0]
	tr.register(1, 0, true)
	seq := tr.next(in.expected(0)+len(in.events), 0)
	var hit, miss int64 = -1, -1
	for s := seq; s < tr.published.Load(); s++ {
		if in.matches(s, 0) && hit < 0 {
			hit = s
		}
		if !in.matches(s, 0) && miss < 0 {
			miss = s
		}
	}
	if hit < 0 || miss < 0 {
		t.Fatal("no matching and non-matching event for filter 0")
	}
	tr.deliver(l, 1, hit, 0)
	if tr.unexpected.Load() != 0 || tr.duplicate.Load() != 0 {
		t.Fatalf("matching delivery rejected: %v", tr.err())
	}
	tr.deliver(l, 1, hit, 0)
	if tr.duplicate.Load() != 1 {
		t.Fatal("duplicate delivery accepted")
	}
	tr.deliver(l, 1, miss, 0)
	tr.deliver(l, 2, hit, 0)
	if tr.unexpected.Load() != 2 {
		t.Fatalf("unexpected deliveries counted %d, want 2", tr.unexpected.Load())
	}
	if tr.err() == nil {
		t.Fatal("oracle failure not reported")
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func TestSummaryLineCarriesTheDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for trace, want := range map[string][]string{"0": endToEnd, "1": perLayer} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "fanout", "--seed", "5", "--seconds", "0.4", "--trace", trace, "--spans", t.TempDir()}
		if code := mainErr(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s\n%s", trace, code, errb.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var s summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatalf("trace %s: last line is not the summary: %v", trace, err)
		}
		if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
			t.Fatalf("trace %s: summary %+v", trace, s)
		}
		var got []string
		for name, m := range s.Metrics {
			got = append(got, name)
			if m.Unit == "" {
				t.Errorf("trace %s: metric %s has no unit", trace, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: metrics %v, BENCHMARK.json declares %v", trace, got, want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fanout", "--trace", "2"},
		{"--workload", "fanout", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := mainErr(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), "{") {
			t.Errorf("%v: printed a summary", args)
		}
	}
}
