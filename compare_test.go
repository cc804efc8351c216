package rankregret_test

import (
	"testing"

	"github.com/rankregret/rankregret"
)

func TestCompareValidation(t *testing.T) {
	ds := rankregret.GenerateIndependent(1, 50, 2)
	if _, err := rankregret.Compare(t.Context(), nil, 3, []rankregret.Algorithm{rankregret.AlgoHDRRM}, nil); err == nil {
		t.Error("nil dataset should fail")
	}
	if _, err := rankregret.Compare(t.Context(), ds, 0, []rankregret.Algorithm{rankregret.AlgoHDRRM}, nil); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := rankregret.Compare(t.Context(), ds, 3, nil, nil); err == nil {
		t.Error("no algorithms should fail")
	}
}

func TestCompare2DExactEvaluation(t *testing.T) {
	ds := rankregret.GenerateAnticorrelated(7, 400, 2)
	rows, err := rankregret.Compare(t.Context(), ds, 5,
		[]rankregret.Algorithm{rankregret.AlgoTwoDRRM, rankregret.AlgoTwoDRRR, rankregret.AlgoHDRRM},
		&rankregret.CompareOptions{Options: rankregret.Options{MaxSamples: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	var exact int
	for _, row := range rows {
		if row.Err != nil {
			t.Fatalf("%s: %v", row.Algorithm, row.Err)
		}
		if row.RankRegret < 1 {
			t.Errorf("%s: rank-regret %d", row.Algorithm, row.RankRegret)
		}
		if row.Algorithm == rankregret.AlgoTwoDRRM {
			exact = row.RankRegret
		}
	}
	// The exact DP is optimal: no other row may evaluate below it.
	for _, row := range rows {
		if row.RankRegret < exact {
			t.Errorf("%s evaluated at %d, below the optimum %d", row.Algorithm, row.RankRegret, exact)
		}
	}
}

func TestCompareRecordsPerRowFailures(t *testing.T) {
	ds := rankregret.GenerateIndependent(11, 100, 3)
	rows, err := rankregret.Compare(t.Context(), ds, 5,
		[]rankregret.Algorithm{rankregret.AlgoHDRRM, rankregret.AlgoTwoDRRM, "bogus"},
		&rankregret.CompareOptions{Options: rankregret.Options{MaxSamples: 500}, EvalSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Err != nil {
		t.Errorf("HDRRM failed: %v", rows[0].Err)
	}
	if rows[1].Err == nil {
		t.Error("2DRRM on d=3 should record an error row")
	}
	if rows[2].Err == nil {
		t.Error("bogus algorithm should record an error row")
	}
}

func TestCompareHDQualityOrdering(t *testing.T) {
	// The headline experimental shape: on anti-correlated data the MDRC
	// heuristic must not be the best of the compared set.
	ds := rankregret.GenerateAnticorrelated(19, 3000, 4)
	rows, err := rankregret.Compare(t.Context(), ds, 10,
		[]rankregret.Algorithm{rankregret.AlgoHDRRM, rankregret.AlgoMDRC},
		&rankregret.CompareOptions{Options: rankregret.Options{MaxSamples: 4000}, EvalSamples: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Err != nil || rows[1].Err != nil {
		t.Fatalf("solver errors: %v / %v", rows[0].Err, rows[1].Err)
	}
	if rows[1].RankRegret < rows[0].RankRegret {
		t.Errorf("MDRC (%d) beat HDRRM (%d) on anti-correlated data", rows[1].RankRegret, rows[0].RankRegret)
	}
}
