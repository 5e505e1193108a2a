// Training: simulate one transformer layer of a training step (forward +
// backward) for every execution strategy and extrapolate to the full
// model, reproducing the training side of the paper's Fig. 11 for one
// model.
//
//	go run ./examples/training [model]
//
// model: mega-gpt-4b | mega-gpt-8b | llama-7b (default)
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"cais"
)

func main() {
	model := cais.LLaMA7B()
	if len(os.Args) > 1 {
		switch strings.ToLower(os.Args[1]) {
		case "mega-gpt-4b":
			model = cais.MegaGPT4B()
		case "mega-gpt-8b":
			model = cais.MegaGPT8B()
		case "llama-7b":
		default:
			log.Fatalf("unknown model %q", os.Args[1])
		}
	}
	hw := cais.DGXH100()
	hw.RequestBytes = 32 << 10 // coarse chunks for a fast end-to-end sweep

	fmt.Printf("training step, %s, %d GPUs (1 layer simulated, %d extrapolated)\n\n",
		model.Name, hw.NumGPUs, model.Layers)
	fmt.Printf("%-14s %14s %16s %10s\n", "strategy", "per layer", "full model step", "vs CAIS")
	var caisTime cais.Time
	type row struct {
		name    string
		perStep cais.Time
	}
	var rows []row
	for _, spec := range cais.Strategies() {
		res, err := cais.RunTraining(hw, spec, model, 1, cais.RunOptions{})
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		full := res.Elapsed * cais.Time(model.Layers)
		rows = append(rows, row{spec.Name, full})
		if spec.Name == "CAIS" {
			caisTime = full
		}
	}
	for _, r := range rows {
		rel := float64(r.perStep) / float64(caisTime)
		fmt.Printf("%-14s %14v %16v %9.2fx\n",
			r.name, r.perStep/cais.Time(model.Layers), r.perStep, rel)
	}
	fmt.Println("\n(>1.00x means slower than CAIS; the paper reports 1.37-1.96x for the NVLS and overlap baselines)")
}
