// Collectives: use the Session API to build raw collective microbenchmarks
// against the simulated NVSwitch fabric — NVLS in-switch AllReduce vs the
// GPU-driven ring — across message sizes, in the spirit of the paper's
// Fig. 18 validation and its Section II observation that NVLS accelerates
// collectives by 2-8x over GPU-driven implementations.
//
//	go run ./examples/collectives
package main

import (
	"fmt"
	"log"

	"cais"
	"cais/internal/kernel"
	"cais/internal/model"
)

func main() {
	hw := cais.DGXH100()
	hw.RequestBytes = 64 << 10

	fmt.Printf("collectives on %d GPUs, %d switch planes, %.0f GB/s effective per direction\n",
		hw.NumGPUs, hw.NumSwitchPlanes, hw.LinkBandwidth*hw.LinkEfficiency/1e9)

	fmt.Printf("\nAllReduce (multimem.red vs ring)\n")
	fmt.Printf("%-10s %14s %14s %10s %14s\n", "size", "NVLS", "ring", "gain", "NVLS algbw")
	for _, mb := range []int{32, 64, 128, 256} {
		bytes := int64(mb) << 20
		nvls, err := runAllReduce(hw, bytes, true)
		if err != nil {
			log.Fatal(err)
		}
		ring, err := runAllReduce(hw, bytes, false)
		if err != nil {
			log.Fatal(err)
		}
		algbw := float64(bytes) / nvls.Seconds() / 1e9
		fmt.Printf("%-10s %14v %14v %9.2fx %11.1f GB/s\n",
			fmt.Sprintf("%d MB", mb), nvls, ring, float64(ring)/float64(nvls), algbw)
	}

	fmt.Printf("\nAllGather (multimem.st vs ring)\n")
	fmt.Printf("%-10s %14s %14s %10s\n", "size", "NVLS", "ring", "gain")
	for _, mb := range []int{64, 256} {
		nvls, ring, err := runAllGather(hw, int64(mb)<<20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14v %14v %9.2fx\n", fmt.Sprintf("%d MB", mb), nvls, ring, float64(ring)/float64(nvls))
	}

	fmt.Printf("\nReduceScatter (multimem.ld_reduce vs ring)\n")
	fmt.Printf("%-10s %14s %14s %10s\n", "size", "NVLS", "ring", "gain")
	for _, mb := range []int{64, 256} {
		nvls, ring, err := runReduceScatter(hw, int64(mb)<<20)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14v %14v %9.2fx\n", fmt.Sprintf("%d MB", mb), nvls, ring, float64(ring)/float64(nvls))
	}
	fmt.Println("\n(AllReduce is where in-switch reduction halves the wire traffic — the paper's 2-8x band;")
	fmt.Println(" AllGather/ReduceScatter move the same volume either way, so NVLS's edge there is latency, not bandwidth)")
}

// runAllGather compares the push-multicast AllGather against the ring.
func runAllGather(hw cais.Hardware, bytes int64) (nvls, ring cais.Time, err error) {
	run := func(useNVLS bool) (cais.Time, error) {
		s, err := cais.NewSession(hw, cais.RunOptions{})
		if err != nil {
			return 0, err
		}
		b := s.Builder()
		cols := 8192
		rows := int(bytes / int64(cols*hw.ElemBytes))
		if rows < model.TileM {
			rows = model.TileM
		}
		copies := b.NewGathered(rows)
		in := func(g, mi, ni int) []kernel.Tile { return nil }
		if useNVLS {
			s.Stage(b.NVLSAllGather("ag", cols, in, copies))
		} else {
			s.Stage(b.RingAllGather("ag", cols, in, copies))
		}
		res, err := s.Run()
		return res.Drained, err
	}
	if nvls, err = run(true); err != nil {
		return
	}
	ring, err = run(false)
	return
}

// runReduceScatter compares the pull-reduce ReduceScatter against the ring.
func runReduceScatter(hw cais.Hardware, bytes int64) (nvls, ring cais.Time, err error) {
	run := func(useNVLS bool) (cais.Time, error) {
		s, err := cais.NewSession(hw, cais.RunOptions{})
		if err != nil {
			return 0, err
		}
		b := s.Builder()
		cols := 8192
		rows := int(bytes / int64(cols*hw.ElemBytes))
		if rows < model.TileM {
			rows = model.TileM
		}
		parts := b.NewParts(rows, cols)
		in := func(g, mi, ni int) []kernel.Tile { return nil }
		if useNVLS {
			s.Stage(b.NVLSReduceScatter("rs", rows, cols, in, parts))
		} else {
			s.Stage(b.RingReduceScatter("rs", rows, cols, in, parts))
		}
		res, err := s.Run()
		return res.Drained, err
	}
	if nvls, err = run(true); err != nil {
		return
	}
	ring, err = run(false)
	return
}

// runAllReduce composes the collective from the session builders: the
// payload is shaped as an M x 8192 bf16 tensor and every GPU contributes a
// partial.
func runAllReduce(hw cais.Hardware, bytes int64, nvls bool) (cais.Time, error) {
	s, err := cais.NewSession(hw, cais.RunOptions{})
	if err != nil {
		return 0, err
	}
	b := s.Builder()
	cols := 8192
	rows := int(bytes / int64(cols*hw.ElemBytes))
	if rows < model.TileM {
		rows = model.TileM
	}
	out := b.NewLocalGrid(rows, cols)
	in := func(g, mi, ni int) []kernel.Tile { return nil }
	var k *kernel.Kernel
	if nvls {
		k = b.NVLSAllReduce("allreduce", rows, cols, in, out)
	} else {
		k = b.RingAllReduce("allreduce", rows, cols, in, out)
	}
	s.Stage(k)
	// Completion means delivery everywhere: Drained covers the last
	// reduced copy landing, not just the (posted) pushes.
	res, err := s.Run()
	return res.Drained, err
}
