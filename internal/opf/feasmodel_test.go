package opf

import (
	"context"
	"strings"
	"testing"

	"gridattack/internal/cases"
)

// TestFeasibilityModelAgreesWithFreshQueries checks the reusable model
// against the build-per-query path on a ladder of non-increasing cost caps
// spanning feasible and infeasible territory.
func TestFeasibilityModelAgreesWithFreshQueries(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"paper5", "ieee14"} {
		c := cases.Registry()[name]
		g := c.Grid
		topo := g.TrueTopology()
		base, err := Solve(g, topo, nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		fm, err := NewFeasibilityModel(g, topo, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s NewFeasibilityModel: %v", name, err)
		}
		for _, factor := range []float64{10, 1.5, 1.01, 1.001, 0.99, 0.9} {
			cap := base.Cost * factor
			got, err := fm.CheckCostBelow(ctx, cap)
			if err != nil {
				t.Fatalf("%s cap %.3f: %v", name, factor, err)
			}
			want, _, err := FeasibleWithin(g, topo, nil, cap, 0)
			if err != nil {
				t.Fatalf("%s fresh query cap %.3f: %v", name, factor, err)
			}
			if got != want {
				t.Errorf("%s cap %.3f: reusable model says %v, fresh query says %v", name, factor, got, want)
			}
			if got {
				dispatch := fm.Dispatch()
				var total, load float64
				for _, p := range dispatch {
					total += p
				}
				for _, l := range g.LoadVector() {
					load += l
				}
				if diff := total - load; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("%s cap %.3f: witness dispatch sums to %.6f, loads to %.6f", name, factor, total, load)
				}
			}
		}
	}
}

// TestFeasibilityModelRejectsLooserCap documents the reuse contract: the
// underlying solver cannot retract a cost cap, so loosening is an error
// rather than a silently wrong answer.
func TestFeasibilityModelRejectsLooserCap(t *testing.T) {
	g := cases.Paper5Bus()
	fm, err := NewFeasibilityModel(g, g.TrueTopology(), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.CheckCostBelow(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	_, err = fm.CheckCostBelow(context.Background(), 2000)
	if err == nil || !strings.Contains(err.Error(), "non-increasing") {
		t.Fatalf("looser cap: err = %v, want non-increasing cap error", err)
	}
	// Repeating the same cap is allowed (no-op tightening).
	if _, err := fm.CheckCostBelow(context.Background(), 1000); err != nil {
		t.Fatalf("repeated cap: %v", err)
	}
}
