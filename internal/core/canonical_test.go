package core

import (
	"testing"

	"gridattack/internal/attack"
	"gridattack/internal/cases"
	"gridattack/internal/smt"
)

// TestCacheKeyEncoding: a key's encoding is the one the analysis runs and
// journals. Under process-wide certification every analysis runs cold, so
// a NoIncremental request keys like a default one; in the default
// environment the keys are unchanged (pinned).
func TestCacheKeyEncoding(t *testing.T) {
	defer smt.SetCertifyDefault(smt.SetCertifyDefault(false))
	g, p := cases.Paper5Bus(), cases.Paper5PlanCase1()
	c := attack.Capability{MaxMeasurements: 8, MaxBuses: 3, RequireTopologyChange: true}
	key := func(noIncremental bool) string {
		return CacheKey(g, p, c, KeyConfig{Targets: []float64{3}, NoIncremental: noIncremental})
	}
	if k := key(false); k != "8d8a4dee54bc07bd5beb321dd383d4994a16db299ba79f678f1ca5d5ebcce3f6" {
		t.Errorf("default-environment incremental key changed: %s", k)
	}
	if k := key(true); k != "8c0741a51730b05ad60e841203be110b52fdfdb5226b89eb6cb3504e782eb411" {
		t.Errorf("default-environment cold key changed: %s", k)
	}

	smt.SetCertifyDefault(true)
	if inc, cold := key(false), key(true); inc != cold {
		t.Errorf("under process-wide certification the encodings are keyed apart (%s vs %s) but both run cold", inc, cold)
	}
}
