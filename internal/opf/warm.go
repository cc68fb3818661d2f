package opf

import (
	"fmt"
	"sync"

	"gridattack/internal/grid"
	"gridattack/internal/lp"
)

// WarmStats summarizes the work a WarmSolver performed.
type WarmStats struct {
	Solves    int // total SolveTopology calls
	WarmHits  int // solves completed from a cached basis with no cold restart
	Fallbacks int // cache hits whose basis turned infeasible (cold re-solve)
	Pivots    int // simplex basis changes across all solves
}

// WarmSolver answers repeated angle-formulation OPF queries, caching the
// final simplex basis per topology so a re-dispatch on an unchanged topology
// re-solves from the previous optimum instead of running two-phase simplex
// from scratch. Only the nodal-balance right-hand sides vary between calls
// for a fixed topology, which is exactly the rhs-only re-solve lp.SolveWarm
// supports. It is library code: the Fig. 2 loop verifies each candidate with
// a cold Solve, because its candidates rarely repeat a topology.
//
// A WarmSolver is safe for concurrent use; concurrent solves for the same
// topology simply miss the cache rather than share a tableau.
type WarmSolver struct {
	g *grid.Grid

	mu    sync.Mutex
	cache map[string]*lp.Warm
	order []string // least-recently-used first
	stats WarmStats
}

// warmCacheCap bounds retained tableaux. Each entry holds rows x cols
// floats, where cols counts structural, slack and artificial columns; the
// sweep touches one topology per candidate attack plus the true
// topology, and revisits are dominated by the most recent few.
const warmCacheCap = 8

// NewWarmSolver returns a warm-starting OPF solver for the grid.
func NewWarmSolver(g *grid.Grid) *WarmSolver {
	return &WarmSolver{g: g, cache: make(map[string]*lp.Warm)}
}

// topoKey fingerprints a topology as a bitset over line IDs.
func (ws *WarmSolver) topoKey(t grid.Topology) string {
	n := ws.g.NumLines()
	key := make([]byte, (n+7)/8)
	for id := 1; id <= n; id++ {
		if t.Contains(id) {
			key[(id-1)/8] |= 1 << uint((id-1)%8)
		}
	}
	return string(key)
}

// take removes and returns the cached warm context for key, if any.
func (ws *WarmSolver) take(key string) *lp.Warm {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	w := ws.cache[key]
	if w != nil {
		delete(ws.cache, key)
		for i, k := range ws.order {
			if k == key {
				ws.order = append(ws.order[:i], ws.order[i+1:]...)
				break
			}
		}
	}
	return w
}

// put stores a warm context for key, evicting the least recently used entry
// beyond the cache cap.
func (ws *WarmSolver) put(key string, w *lp.Warm) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if _, ok := ws.cache[key]; ok {
		// A concurrent solve repopulated the key; keep the newer entry.
		return
	}
	ws.cache[key] = w
	ws.order = append(ws.order, key)
	if len(ws.order) > warmCacheCap {
		evict := ws.order[0]
		ws.order = ws.order[1:]
		delete(ws.cache, evict)
	}
}

// SolveTopology computes the minimum-cost dispatch under topology t for the
// given loads (nil means the grid's loads), warm-starting from the last
// optimal basis seen for t when one is cached. Results are identical to
// opf.Solve up to simplex arithmetic on the same optimal basis.
func (ws *WarmSolver) SolveTopology(t grid.Topology, loads []float64) (*Solution, error) {
	loads, err := checkSolveInputs(ws.g, loads)
	if err != nil {
		return nil, err
	}
	if !ws.g.Connected(t) {
		return nil, fmt.Errorf("opf: topology disconnects the network: %w", ErrInfeasible)
	}
	p, av, err := buildAngleLP(ws.g, t, loads)
	if err != nil {
		return nil, err
	}

	key := ws.topoKey(t)
	prev := ws.take(key)
	sol, next, err := p.SolveWarm(prev)

	ws.mu.Lock()
	ws.stats.Solves++
	if sol != nil {
		ws.stats.Pivots += sol.Pivots
		if sol.Warmed {
			ws.stats.WarmHits++
		} else if prev != nil {
			ws.stats.Fallbacks++
		}
	}
	ws.mu.Unlock()

	if err != nil {
		return nil, fmt.Errorf("opf: %w", err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, ErrInfeasible
	case lp.Unbounded:
		return nil, fmt.Errorf("opf: unbounded LP (model error)")
	}
	if next != nil {
		ws.put(key, next)
	}
	return extractAngleSolution(ws.g, sol, av), nil
}

// Stats returns a snapshot of the solver's counters.
func (ws *WarmSolver) Stats() WarmStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.stats
}
