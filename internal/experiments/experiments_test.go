package experiments

import (
	"slices"
	"strings"
	"testing"
)

func assertResult(t *testing.T, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || res.Table.NumRows() == 0 {
		t.Fatalf("%s: empty table", res.Name)
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("%s: check failed: %s (%s)", res.Name, c.Claim, c.Got)
		}
	}
	out := res.String()
	if !strings.Contains(out, res.Name) {
		t.Fatalf("String() missing name: %q", out)
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1("../..")
	assertResult(t, res, err)
}

func TestTable2Quick(t *testing.T) {
	sz := Table2Sizes{FatTreeK: 8, TableEntries: 1000, VerifyLen: 16, Reps: 100}
	res, err := Table2(sz)
	assertResult(t, res, err)
}

func TestFig7(t *testing.T) {
	assertResult(t, Fig7(), nil)
}

func TestFig8aQuick(t *testing.T) {
	res, err := Fig8a(true)
	assertResult(t, res, err)
}

func TestFig8bQuick(t *testing.T) {
	res, err := Fig8b(true)
	assertResult(t, res, err)
}

// TestFig9 asserts the model check in every build and the measured,
// wall-clock one only without -race.
func TestFig9(t *testing.T) {
	res, err := Fig9(2000)
	if raceEnabled && err == nil {
		res.Checks = slices.DeleteFunc(res.Checks, func(c Check) bool { return strings.HasPrefix(c.Claim, "measured:") })
		if len(res.Checks) == 0 {
			t.Fatal("no model check left to assert")
		}
	}
	assertResult(t, res, err)
}

func TestFig10Quick(t *testing.T) {
	cfg := DefaultFig10Config()
	cfg.PingsPerPair = 20
	cfg.Pairs = 40
	res, err := Fig10(cfg)
	assertResult(t, res, err)
}

func TestFig11a(t *testing.T) {
	res, err := Fig11a(DefaultFig11aConfig())
	assertResult(t, res, err)
}

func TestFig11b(t *testing.T) {
	res, err := Fig11b(DefaultFig11bConfig())
	assertResult(t, res, err)
}

func TestFig12Quick(t *testing.T) {
	res, err := Fig12(6, 2, 1) // smaller cube, max length still reachable
	assertResult(t, res, err)
}

func TestFig13(t *testing.T) {
	res, err := Fig13(DefaultFig13Config())
	assertResult(t, res, err)
}

func TestAggregateLeafThroughput(t *testing.T) {
	res, err := AggregateLeafThroughput()
	assertResult(t, res, err)
}

func TestTestbedDiscovery(t *testing.T) {
	res, err := TestbedDiscovery()
	assertResult(t, res, err)
}

func TestResultAllPass(t *testing.T) {
	r := &Result{Checks: []Check{{Pass: true}, {Pass: true}}}
	if !r.AllPass() {
		t.Fatal("AllPass false")
	}
	r.Checks = append(r.Checks, Check{Pass: false})
	if r.AllPass() {
		t.Fatal("AllPass true with failing check")
	}
}

func TestAblationPathGraph(t *testing.T) {
	res, err := AblationPathGraph(15, 1)
	assertResult(t, res, err)
}

func TestAblationFlowletTimeout(t *testing.T) {
	res, err := AblationFlowletTimeout()
	assertResult(t, res, err)
}

func TestAblationHopLimit(t *testing.T) {
	res, err := AblationHopLimit()
	assertResult(t, res, err)
}

func TestAblationSuppression(t *testing.T) {
	res, err := AblationSuppression()
	assertResult(t, res, err)
}

func TestAblationECN(t *testing.T) {
	res, err := AblationECN()
	assertResult(t, res, err)
}

func TestAblationPHostIncast(t *testing.T) {
	res, err := AblationPHostIncast()
	assertResult(t, res, err)
}

func TestStorageOverheadQuick(t *testing.T) {
	res, err := StorageOverhead(8, 40, 1)
	assertResult(t, res, err)
}

func TestFlowCompletionTimesQuick(t *testing.T) {
	res, err := FlowCompletionTimes(0.5, 0.5, nil, 1)
	assertResult(t, res, err)
}
