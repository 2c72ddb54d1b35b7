package hybrid

import (
	"testing"

	"dumbnet/internal/fabric"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// TestParallelCableWatchedByItsOwnLink fails the higher-port one of two
// parallel cables: exactly that cable's two fluid links go down, and a
// restore brings them back.
func TestParallelCableWatchedByItsOwnLink(t *testing.T) {
	tp, err := topo.LeafSpine(2, 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Spine 1 port 1 meets leaf 3 port 3; the twin is 1:5–3:5.
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	fab, err := fabric.Build(eng, tp, fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ly, err := New(eng, fab, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := tp.Dense()
	fluid := func(id topo.SwitchID, p topo.Port) int32 {
		i, _ := g.IndexOf(id)
		return ly.byPort[ly.portBase[i]+int32(p)]
	}
	twin := fab.Switch(1).LinkAt(5)
	want := map[int32]bool{fluid(1, 5): true, fluid(3, 5): true}
	check := func(when string, down map[int32]bool) {
		t.Helper()
		for id, up := range ly.linkUp {
			if up == down[int32(id)] {
				t.Errorf("%s: fluid link %d up=%v", when, id, up)
			}
		}
	}
	twin.Fail()
	check("twin failed", want)
	twin.Restore()
	check("twin restored", nil)
}
