package conflict

import (
	"sync"

	"mastergreen/internal/change"
)

// graphMemo is the analyzer's long-lived conflict graph plus the analysis
// identity each vertex's edges were last scanned under. A pair of vertices
// is clean — its edge state carried over without a rescan — iff both
// members' identities are unchanged since the last update.
type graphMemo struct {
	graph   *Graph
	members map[change.ID]uint64
}

// BuildGraph analyzes every pending change pairwise and returns the conflict
// graph. Changes whose patch no longer applies to HEAD are reported in
// failed with their error and excluded from the graph.
//
// Analyses fan out in parallel on the bounded worker pool. The returned
// graph is maintained incrementally across calls: vertices for changes no
// longer pending are removed, new ones added, and only pairs whose analyses
// changed since the previous epoch are re-verdicted; everything else carries
// over. If HEAD moves while the fan-out is in flight, the whole pass retries
// once against the new head; pairs still stale after the retry get a
// conservative conflict edge so the planner re-plans next epoch rather than
// miscommitting.
func (a *Analyzer) BuildGraph(pending []*change.Change) (*Graph, map[change.ID]error) {
	type slot struct {
		an  *Analysis
		err error
	}
	slots := make([]slot, len(pending))
	analyze := func() {
		var wg sync.WaitGroup
		for i, c := range pending {
			wg.Add(1)
			go func(i int, c *change.Change) {
				defer wg.Done()
				an, err := a.Analyze(c)
				slots[i] = slot{an: an, err: err}
			}(i, c)
		}
		wg.Wait()
	}

	for attempt := 0; ; attempt++ {
		analyze()

		a.mu.Lock()
		if err := a.refreshHeadLocked(); err != nil {
			// The head snapshot itself fails build-graph analysis; nothing
			// can be decided this epoch.
			a.mu.Unlock()
			failed := make(map[change.ID]error, len(pending))
			for _, c := range pending {
				failed[c.ID] = err
			}
			return NewGraph(nil), failed
		}
		stale := false
		for i, c := range pending {
			if slots[i].err != nil {
				continue
			}
			// Prefer the cached analysis: a head move since the fan-out
			// re-homed disjoint survivors in place.
			if cur, ok := a.analyses[c.ID]; ok {
				slots[i].an = cur
			}
			if slots[i].an.Head != a.head {
				stale = true
			}
		}
		if stale && attempt < 1 {
			a.stats.HeadMoveRetries++
			a.mu.Unlock()
			continue
		}

		failed := map[change.ID]error{}
		ok := make([]*Analysis, 0, len(pending))
		for i, c := range pending {
			if slots[i].err != nil {
				failed[c.ID] = slots[i].err
				continue
			}
			ok = append(ok, slots[i].an)
		}
		g := a.updateGraphLocked(ok)
		a.mu.Unlock()
		return g, failed
	}
}

// updateGraphLocked reconciles the memoized conflict graph with the current
// set of successfully analyzed pending changes (in submission order) and
// returns a clone. Callers hold a.mu.
func (a *Analyzer) updateGraphLocked(ok []*Analysis) *Graph {
	if a.memo == nil {
		a.memo = &graphMemo{graph: NewGraph(nil), members: map[change.ID]uint64{}}
		a.stats.GraphRebuilds++
	} else {
		a.stats.GraphUpdates++
	}
	m := a.memo

	// Drop vertices for changes no longer pending (committed, rejected, or
	// failed this epoch). Their analyses cannot be queried again at this
	// head through BuildGraph, so the per-change cache is pruned too, which
	// in turn lets the pair sweep reclaim their memoized verdicts.
	current := make(map[change.ID]bool, len(ok))
	for _, an := range ok {
		current[an.Change.ID] = true
	}
	pruned := false
	for _, id := range m.graph.Order() {
		if !current[id] {
			m.graph.Remove(id)
			delete(m.members, id)
			if _, cached := a.analyses[id]; cached {
				delete(a.analyses, id)
				pruned = true
			}
		}
	}
	if pruned {
		a.sweepPairsLocked()
	}

	// Add vertices in submission order and mark dirty ones: new vertices,
	// vertices whose analysis was recomputed (identity changed), and — after
	// an exhausted head-move retry — vertices whose analysis is still stale.
	dirty := make([]bool, len(ok))
	staleAt := make([]bool, len(ok))
	for i, an := range ok {
		m.graph.AddChange(an.Change.ID)
		staleAt[i] = an.Head != a.head
		dirty[i] = staleAt[i] || m.members[an.Change.ID] != an.id
	}

	for i := 0; i < len(ok); i++ {
		for j := i + 1; j < len(ok); j++ {
			if !dirty[i] && !dirty[j] {
				a.stats.PairsReused++
				continue
			}
			ci, cj := ok[i].Change.ID, ok[j].Change.ID
			if staleAt[i] || staleAt[j] {
				// Head kept moving through the retry: assume conflict so the
				// planner re-plans next epoch rather than miscommitting.
				a.stats.ConservativeEdges++
				m.graph.AddEdge(ci, cj)
				continue
			}
			a.stats.PairsRescanned++
			if a.pairVerdictLocked(ok[i], ok[j]) {
				m.graph.AddEdge(ci, cj)
			} else {
				m.graph.RemoveEdge(ci, cj)
			}
		}
	}
	for i, an := range ok {
		if staleAt[i] {
			// Not scanned at this head; force a rescan next epoch.
			delete(m.members, an.Change.ID)
		} else {
			m.members[an.Change.ID] = an.id
		}
	}
	return m.graph.Clone()
}
