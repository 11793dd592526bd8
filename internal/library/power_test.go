package library_test

import (
	"math"
	"testing"

	"repro/internal/experiments"
)

// powerProbes are the frame rates the closed-form model is checked at:
// below zero, zero, inside the range, at the cap, just past it and well
// past it.
func powerProbes(capFPS float64) []float64 {
	return []float64{-1, 0, 0.5 * capFPS, capFPS, math.Nextafter(capFPS, math.Inf(1)), 2 * capFPS}
}

// Library.Power must reproduce synth.Accelerator.PowerAt bit for bit: on
// the fixed accelerator for every entry of the four paper libraries, and
// on the flexible accelerator reconfigured to the entry's channels.
func TestPowerMatchesAccelerator(t *testing.T) {
	for _, p := range experiments.Pairs {
		lib, err := experiments.Lib(p)
		if err != nil {
			t.Fatal(err)
		}
		flex := lib.Flexible
		for i, e := range lib.Entries {
			fixed := lib.Power(i, false)
			for _, fps := range powerProbes(fixed.Cap) {
				want, got := e.Fixed.PowerAt(fps), fixed.At(fps)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s entry %d fixed at %v fps: closed form %v, accelerator %v", p, i, fps, got, want)
				}
			}

			fl := lib.Power(i, true)
			if err := flex.Dataflow.SetChannels(e.Channels); err != nil {
				t.Fatal(err)
			}
			var want []float64
			for _, fps := range powerProbes(fl.Cap) {
				want = append(want, flex.PowerAt(fps))
			}
			if err := flex.Dataflow.SetChannels(flex.Dataflow.WorstChannels); err != nil {
				t.Fatal(err)
			}
			for j, fps := range powerProbes(fl.Cap) {
				if got := fl.At(fps); math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("%s entry %d flexible at %v fps: closed form %v, accelerator %v", p, i, fps, got, want[j])
				}
			}
		}
	}
}
