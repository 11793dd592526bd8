package multiedge

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/manager"
)

// TestGoldenPoolEventLevel pins a per-frame run of a pool through a full
// blackout: both boards crash at t=5 s and recover on a later heartbeat.
// While no board is able, frames queue and then shed as no-healthy-board;
// the heartbeat that restores capacity must restart service at once, not
// at the next arrival. Refresh with
//
//	go test ./internal/multiedge/ -run Golden -update
func TestGoldenPoolEventLevel(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan("board-crash:p=1,start=5,end=5.05,repair=2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := edge.RunEventLevel(scenario(t, "paper1"), p, edge.SimConfig{
		Seed:        1,
		FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.BoardsRecovered == 0 || res.Drops.NoHealthyBoard == 0 {
		t.Fatalf("run did not black out and recover: %+v", res.RunStats)
	}
	got := fmt.Sprintf("# stats\n%+v\n# switches\n%+v\n# faults\n%+v\n", res.RunStats, res.Switches, res.FaultEvents)
	path := filepath.Join("testdata", "pool_event_blackout.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch:\nwant %s\ngot  %s", want, got)
	}
}
