package experiments

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// Fig12 reproduces "size of path graph w.r.t. ε choices, under a 10-cube
// topology": for primary paths of length {2,5,10,15} on a 10×10×10 cube
// with s=2, sweep ε and report the cached subgraph size (Algorithm 1).
func Fig12(cubeSide int, trials int, seed int64) (*Result, error) {
	if cubeSide <= 0 {
		cubeSide = 10
	}
	if trials <= 0 {
		trials = 5
	}
	cube, err := topo.Cube(cubeSide, 1, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := cube.Hosts()

	// Index host attachments by switch for distance-targeted pair picking.
	bySwitch := make(map[packet.SwitchID]packet.MAC, len(hosts))
	for _, h := range hosts {
		bySwitch[h.Switch] = h.Host
	}
	g, sc := cube.Dense(), topo.NewDenseScratch()
	// pairAt finds a host pair whose switch distance is exactly len.
	pairAt := func(length int) (packet.MAC, packet.MAC, bool) {
		for tries := 0; tries < 500; tries++ {
			src := hosts[rng.Intn(len(hosts))]
			si, _ := g.IndexOf(src.Switch)
			var cands []packet.SwitchID
			for i, d := range g.DistTo(sc, si) {
				if int(d) == length {
					cands = append(cands, g.IDOf(int32(i)))
				}
			}
			if len(cands) == 0 {
				continue
			}
			dst := cands[rng.Intn(len(cands))]
			if m, ok := bySwitch[dst]; ok {
				return src.Host, m, true
			}
		}
		return packet.MAC{}, packet.MAC{}, false
	}

	lengths := []int{2, 5, 10, 15}
	epsilons := []int{0, 1, 2, 3, 4}
	sizes := make(map[[2]int]float64) // (len, eps) -> avg switches

	for _, l := range lengths {
		for t := 0; t < trials; t++ {
			src, dst, ok := pairAt(l)
			if !ok {
				return nil, fmt.Errorf("experiments: no pair at distance %d", l)
			}
			trialSeed := rng.Int63()
			for _, eps := range epsilons {
				// A fresh rng per ε with the trial's seed keeps the
				// primary path identical across the ε sweep, so sizes
				// compare like for like.
				trialRng := rand.New(rand.NewSource(trialSeed))
				pg, err := topo.BuildPathGraph(cube, src, dst, topo.PathGraphOptions{S: 2, Epsilon: eps}, trialRng)
				if err != nil {
					return nil, err
				}
				sizes[[2]int{l, eps}] += float64(pg.Graph.NumSwitches()) / float64(trials)
			}
		}
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("Figure 12: path graph size (switches) vs ε, %d-cube, s=2, avg of %d trials", cubeSide, trials),
		"ε", "len=2", "len=5", "len=10", "len=15")
	for _, eps := range epsilons {
		tbl.AddRow(eps,
			sizes[[2]int{2, eps}], sizes[[2]int{5, eps}],
			sizes[[2]int{10, eps}], sizes[[2]int{15, eps}])
	}

	res := &Result{Name: "Figure 12 — path graph size vs ε", Table: tbl}
	// Shape checks from the paper: longer paths with larger ε cache a lot;
	// short paths stay cheap even at large ε; monotone growth in ε.
	grow15 := sizes[[2]int{15, 4}] / sizes[[2]int{15, 0}]
	short4 := sizes[[2]int{2, 4}]
	mono := true
	for _, l := range lengths {
		for i := 1; i < len(epsilons); i++ {
			if sizes[[2]int{l, epsilons[i]}] < sizes[[2]int{l, epsilons[i-1]}]-1e-9 {
				mono = false
			}
		}
	}
	res.Checks = append(res.Checks,
		Check{
			Claim: "for longer paths, larger ε costs a lot of extra caching",
			Pass:  grow15 > 2,
			Got:   fmt.Sprintf("len-15 grows %.1fx from ε=0 to ε=4", grow15),
		},
		Check{
			Claim: "for short paths even large ε stays cheap",
			Pass:  short4 < sizes[[2]int{15, 4}]/3,
			Got:   fmt.Sprintf("len-2 @ ε=4 caches %.1f switches", short4),
		},
		Check{
			Claim: "size is monotone in ε",
			Pass:  mono,
			Got:   "all series",
		},
	)
	return res, nil
}
