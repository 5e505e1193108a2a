// Inference: simulate the communication-heavy prefill stage for the three
// Table I models under CAIS and the two Megatron-style NVLS baselines, and
// report where the time goes (the compute/communication split that
// motivates compute-aware in-switch computing, Fig. 2).
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"

	"cais"
)

func main() {
	hw := cais.DGXH100()
	hw.RequestBytes = 32 << 10

	specs := []string{"TP-NVLS", "SP-NVLS", "CAIS"}
	fmt.Printf("prefill latency per transformer layer, %d GPUs\n\n", hw.NumGPUs)
	fmt.Printf("%-14s", "model")
	for _, s := range specs {
		fmt.Printf(" %14s", s)
	}
	fmt.Printf(" %12s\n", "CAIS gain")

	for _, model := range cais.TableIModels() {
		fmt.Printf("%-14s", model.Name)
		var times []cais.Time
		for _, name := range specs {
			spec, err := cais.StrategyByName(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := cais.RunInference(hw, spec, model, 1, cais.RunOptions{})
			if err != nil {
				log.Fatalf("%s/%s: %v", model.Name, name, err)
			}
			times = append(times, res.Elapsed)
			fmt.Printf(" %14v", res.Elapsed)
		}
		best := times[0]
		if times[1] < best {
			best = times[1]
		}
		fmt.Printf(" %11.2fx\n", float64(best)/float64(times[2]))
	}
	fmt.Println("\n(CAIS gain = best NVLS baseline / CAIS; the paper's end-to-end inference geomean over TP-NVLS is 1.38x)")
}
