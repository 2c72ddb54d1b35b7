package core_test

import (
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/topo"
)

// TestSendDeliverAllocFree is the end-to-end guard the per-layer guards
// (switch forward, multicast fork, trace publish: all 0 allocs/op) never
// were: a frame sent with core.Send and delivered to an OnReceive sink
// through a warm k=4 fat-tree — encode, host uplink, up to five switch hops,
// decode, dispatch — costs no allocation of its own. Frame buffers, events
// and link deliveries all cycle through pools; what is left is amortised
// queue growth, far below one allocation per ten frames.
func TestSendDeliverAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"one engine", nil},
		{"two shards", []core.Option{core.WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := topo.FatTree(4, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			n, err := core.New(tp, append([]core.Option{core.WithHostFlood(false)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			all := append([]core.MAC{n.Ctrl.MAC()}, n.Hosts()...)
			// Half-way round the host list is another pod: the longest path.
			partner := func(i int) core.MAC { return all[(i+len(all)/2)%len(all)] }
			// One slot per receiving host: hosts on different shards deliver
			// concurrently.
			got := make([]int, len(all))
			for i := range all {
				i := i
				if err := n.OnReceive(all[i], func(core.MAC, []byte) { got[i]++ }); err != nil {
					t.Fatal(err)
				}
				if err := n.Agent(all[i]).WarmUp(partner(i)); err != nil {
					t.Fatal(err)
				}
			}
			n.Run()

			payloads := [2][]byte{make([]byte, 64), make([]byte, 1400)}
			const perHost = 6
			wave := func() {
				for i := range all {
					for f := 0; f < perHost; f++ {
						if err := n.Send(all[i], partner(i), payloads[f&1]); err != nil {
							t.Fatal(err)
						}
					}
				}
				n.Run()
			}
			wave() // fills the frame and event pools
			const waves = 50
			perWave := testing.AllocsPerRun(waves, wave)
			frames := len(all) * perHost
			delivered := 0
			for _, c := range got {
				delivered += c
			}
			// AllocsPerRun adds one warm-up call of its own.
			if want := frames * (waves + 2); delivered != want {
				t.Fatalf("delivered %d frames, want %d", delivered, want)
			}
			perFrame := perWave / float64(frames)
			t.Logf("%.0f allocs per wave of %d frames: %.3f per delivered frame", perWave, frames, perFrame)
			if !raceEnabled && perFrame >= 0.1 {
				t.Errorf("%.3f allocs per delivered frame, want < 0.1", perFrame)
			}
		})
	}
}
