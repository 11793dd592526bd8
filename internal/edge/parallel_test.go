package edge

import (
	"reflect"
	"testing"
)

// TestRunRepeatedDeterministicAcrossParallelism pins the contract the
// concurrent fan-out must keep: per-run stats and their mean are identical
// whether the repeats execute serially or across workers. Runs with the
// AdaFlow controller, whose flexible power model queries the shared
// library from every run (exercised under -race by make test-race).
func TestRunRepeatedDeterministicAcrossParallelism(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) { return adaflow(t, lib), nil }
	const n, seed = 8, 3
	cfg := SimConfig{FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 11}}

	prev := SetMaxParallelRuns(1)
	serialMean, serialRuns, err := RunRepeated(scenario(t, "paper12"), mk, n, seed, cfg)
	SetMaxParallelRuns(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} { // 0 resets to NumCPU
		old := SetMaxParallelRuns(workers)
		mean, runs, err := RunRepeated(scenario(t, "paper12"), mk, n, seed, cfg)
		SetMaxParallelRuns(old)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serialRuns, runs) {
			t.Fatalf("workers=%d: per-run stats diverged from serial", workers)
		}
		if !reflect.DeepEqual(serialMean, mean) {
			t.Fatalf("workers=%d: mean diverged from serial:\n serial: %+v\n par:    %+v",
				workers, serialMean, mean)
		}
	}
}
