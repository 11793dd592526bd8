package edge

import (
	"reflect"
	"testing"
)

// TestRunRepeatedFaultSeedOffset: RunRepeated gives run i the workload
// seed seed+i and the fault seed FaultConfig.Seed+i, so each repeat draws
// its own chaos and replays as the equivalent single Run.
func TestRunRepeatedFaultSeedOffset(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) { return adaflow(t, lib), nil }
	cfg := SimConfig{FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 11}}
	_, runs, err := RunRepeated(scenario(t, "paper12"), mk, 2, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(scenario(t, "paper12"), adaflow(t, lib), SimConfig{
		Seed:        4,
		FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs[1], one.RunStats) {
		t.Errorf("run 1 did not use seeds (4, 12):\nrepeated %+v\nsingle   %+v", runs[1], one.RunStats)
	}
}
