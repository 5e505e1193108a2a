package cais_test

import (
	"strings"
	"testing"

	"cais"
	"cais/internal/kernel"
)

func fastHW() cais.Hardware {
	hw := cais.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 16
	hw.RequestBytes = 16 << 10
	return hw
}

func tiny() cais.Model {
	return cais.Model{Name: "tiny", Hidden: 512, FFNHidden: 1024, Heads: 4, SeqLen: 256, Batch: 2, Layers: 2}
}

func TestFacadeInferenceAndTraining(t *testing.T) {
	hw := fastHW()
	inf, err := cais.RunInference(hw, cais.CAIS(), tiny(), 1, cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cais.RunTraining(hw, cais.CAIS(), tiny(), 1, cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Elapsed <= inf.Elapsed {
		t.Fatalf("training (%v) should exceed inference (%v)", tr.Elapsed, inf.Elapsed)
	}
}

func TestFacadeSubLayer(t *testing.T) {
	subs := cais.SubLayers(tiny())
	if len(subs) != 4 {
		t.Fatalf("sub-layers = %d", len(subs))
	}
	res, err := cais.RunSubLayer(fastHW(), cais.CAIS(), subs[0], cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestFacadeServing(t *testing.T) {
	w := cais.ServingWorkload{
		Requests:   8,
		RatePerSec: 500,
		Prompt:     cais.ServingUniform(32, 64),
		Output:     cais.ServingUniform(2, 4),
		Seed:       7,
	}
	res, err := cais.RunServing(fastHW(), cais.CAIS(), tiny(), 1, w, cais.NewMemoCache())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != w.Requests {
		t.Fatalf("completed %d requests, want %d", len(res.Requests), w.Requests)
	}
	sum := cais.EvaluateServing(res, cais.ServingSLO{})
	if sum.SLOMet != w.Requests || sum.GoodputRPS <= 0 {
		t.Fatalf("unbounded SLO: met %d/%d, goodput %g", sum.SLOMet, sum.Requests, sum.GoodputRPS)
	}
}

func TestFacadeStrategyCatalog(t *testing.T) {
	if len(cais.Strategies()) != 11 {
		t.Fatalf("strategies = %d, want 11", len(cais.Strategies()))
	}
	s, err := cais.StrategyByName("t3-nvls")
	if err != nil || s.Name != "T3-NVLS" {
		t.Fatalf("lookup failed: %v %v", s, err)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	names := cais.ExperimentNames()
	if len(names) != 19 {
		t.Fatalf("experiments = %d, want 19", len(names))
	}
	out, err := cais.RunExperiment("table1", cais.QuickExperiments())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LLaMA-7B") {
		t.Fatal("table1 output incomplete")
	}
}

func TestFacadeSessionCustomPipeline(t *testing.T) {
	hw := fastHW()
	s, err := cais.NewSession(hw, cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	out := b.NewLocalGrid(256, 256)
	k := b.GEMM("custom", 256, 256, 512, 1,
		func(g, mi, ni int) []kernel.Tile { return nil }, out)
	s.Stage(k)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Drained < res.Elapsed {
		t.Fatalf("elapsed=%v drained=%v", res.Elapsed, res.Drained)
	}
	// Second run must be rejected.
	if _, err := s.Run(); err == nil {
		t.Fatal("double Run accepted")
	}
}

func TestFacadeSessionConcurrentStages(t *testing.T) {
	s, err := cais.NewSession(fastHW(), cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	o1 := b.NewLocalGrid(256, 256)
	o2 := b.NewLocalGrid(256, 256)
	k1 := b.GEMM("a", 256, 256, 256, 1, func(g, mi, ni int) []kernel.Tile { return nil }, o1)
	k2 := b.GEMM("b", 256, 256, 256, 1, func(g, mi, ni int) []kernel.Tile { return nil }, o2)
	s.Stage(k1)
	s.Concurrent(k2)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MergedLoads != 0 {
		t.Fatal("local GEMMs must not touch the merge unit")
	}
}
