package main

import "math/bits"

// histSub is the number of buckets per power of two: values are kept to
// within 1/histSub (under 2%) of their size.
const histSub = 64

// hist is a log-linear latency histogram (ns). Recording a delivery costs
// no allocation, so the benchmark's own bookkeeping adds no garbage for
// the program's collector to chase, however many deliveries a run makes.
type hist struct {
	counts [40 * histSub]uint32
	n      int
}

func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 7 // v>>shift falls in [histSub, 2·histSub)
	return min((shift+1)*histSub+int(v>>shift)-histSub, 40*histSub-1)
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	lo := int64(i%histSub+histSub) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (nearest rank), to the bucket's midpoint.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(max(int(q*float64(h.n)+0.999999), 1))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

func (h *hist) summarize() quant {
	return quant{p50: h.quantile(0.50), p99: h.quantile(0.99), n: h.n}
}
