package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gridattack/internal/cases"
)

// The solver is deterministic, so its effort counters are exact regression
// signals: a change to decision order, propagation, pivoting or the
// rational arithmetic's fast/slow split moves them even when every verdict
// stays the same. TestCounterGolden pins them for a few analyses by exact
// equality. A change that moves a counter on purpose re-pins with
//
//	go test ./internal/core -run TestCounterGolden -regen
//
// and says why.
var regen = flag.Bool("regen", false, "rewrite testdata/counters_golden.json from the current code")

const counterGoldenPath = "testdata/counters_golden.json"

// counterPin is the golden record of one analysis.
type counterPin struct {
	Found        bool   `json:"found"`
	Exhausted    bool   `json:"exhausted"`
	Iterations   int    `json:"iterations"`
	AttackedCost string `json:"attacked_cost_bits"`
	Decisions    int64  `json:"decisions"`
	Conflicts    int64  `json:"conflicts"`
	TheoryProps  int64  `json:"theory_props"`
	Pivots       int64  `json:"pivots"`
	Rat64FastOps int64  `json:"rat64_fast_ops"`
	Rat64BigOps  int64  `json:"rat64_big_ops"`
}

// fig4bAnalyzer builds one query of the Fig. 4(b) state-infection sweep on
// synth30 with the sweep's settings: 1.5% target, 6 iterations, LP
// verification and deterministic budgets only.
func fig4bAnalyzer(t *testing.T, seed int64) *Analyzer {
	t.Helper()
	c, err := cases.ByName("synth30")
	if err != nil {
		t.Fatal(err)
	}
	a := NewScenario(c, ScenarioConfig{Seed: seed, States: true}).Analyzer(1.5)
	a.MaxIterations = 6
	a.MaxConflicts = 200000
	a.MaxPivots = 2000000
	a.Verify = VerifyLP
	return a
}

var counterCases = []struct {
	name  string
	short bool // cheap enough for -short
	build func(t *testing.T) *Analyzer
}{
	{"smoke_ieee14_states", true, func(t *testing.T) *Analyzer { return smokeAnalyzer(t, "ieee14", true, 1.0) }},
	{"smoke_synth30_states", false, func(t *testing.T) *Analyzer { return smokeAnalyzer(t, "synth30", true, 1.0) }},
	{"fig4b_synth30_seed7", false, func(t *testing.T) *Analyzer { return fig4bAnalyzer(t, 7) }},
	{"fig4b_synth30_seed207", false, func(t *testing.T) *Analyzer { return fig4bAnalyzer(t, 207) }},
}

func pinOf(t *testing.T, a *Analyzer) counterPin {
	t.Helper()
	rep, err := a.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rep.SolverStats
	return counterPin{
		Found: rep.Found, Exhausted: rep.Exhausted, Iterations: rep.Iterations,
		AttackedCost: fmt.Sprintf("%016x", math.Float64bits(rep.AttackedCost)),
		Decisions:    st.Decisions, Conflicts: st.Conflicts, TheoryProps: st.TheoryProps,
		Pivots: st.Pivots, Rat64FastOps: st.Rat64FastOps, Rat64BigOps: st.Rat64BigOps,
	}
}

func TestCounterGolden(t *testing.T) {
	if *regen {
		golden := make(map[string]counterPin)
		for _, cc := range counterCases {
			golden[cc.name] = pinOf(t, cc.build(t))
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(counterGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(counterGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", counterGoldenPath)
		return
	}
	data, err := os.ReadFile(counterGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]counterPin
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, cc := range counterCases {
		t.Run(cc.name, func(t *testing.T) {
			if testing.Short() && !cc.short {
				t.Skip("short mode: skipping large-system analysis")
			}
			want, ok := golden[cc.name]
			if !ok {
				t.Fatalf("no golden entry; re-pin with -regen")
			}
			if got := pinOf(t, cc.build(t)); got != want {
				t.Errorf("counters moved:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}
