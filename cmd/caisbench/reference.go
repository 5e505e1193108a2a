package main

import "time"

// refNominal is the reference kernel's time, in seconds, at the host speed
// that wall_s, cpu_s and setup_s are expressed at: about its median on the
// 2-vCPU host the bounds were calibrated on, in a quiet period.
const refNominal = 0.02

// refKernel is a fixed discrete-event loop that shares no code with the
// simulator: a binary heap of event times about 2000 deep and a map of 64k
// counters. The benchmark times it between passes to measure how fast the
// host runs at that moment. On a shared host that speed drifts by up to a
// third within minutes, and a pass's time divided by the kernel's time next
// to it varies between runs less than half as much as the time alone. Its
// state is allocated once, so that it never allocates and never starts a
// collection.
type refKernel struct {
	heap []uint64
	hits map[uint64]uint64
	sink uint64
}

func newRefKernel() refKernel {
	return refKernel{heap: make([]uint64, 0, 4096), hits: make(map[uint64]uint64, 1<<16)}
}

// run executes the kernel and returns its host seconds.
func (k *refKernel) run() float64 {
	start := time.Now()
	h := k.heap[:0]
	clear(k.hits)
	x, now := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, now+x%1000)
		for j := len(h) - 1; j > 0 && h[(j-1)/2] > h[j]; j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
		k.hits[x&0xffff] += now
		if len(h) > 2000 {
			now = h[0]
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			for j := 0; ; {
				c := 2*j + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
	}
	k.sink += now + k.hits[now&0xffff] // keeps the loop's results live
	return time.Since(start).Seconds()
}
