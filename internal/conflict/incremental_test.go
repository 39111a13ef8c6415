package conflict

import (
	"reflect"
	"testing"
	"time"

	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/repo"
)

// commit lands a patch built by mkChange and returns the new head.
func commit(t *testing.T, r *repo.Repo, path, content string) *repo.Commit {
	t.Helper()
	head := r.Head()
	c, err := r.CommitPatch(head.ID, mkChange(t, r, "land", path, content).Patch, "dev", "m", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSelectiveInvalidationRehomesDisjoint(t *testing.T) {
	r := testRepo()
	a := New(r)
	cy := mkChange(t, r, "cy", "y/y.go", "y v2") // delta {y}
	cz := mkChange(t, r, "cz", "z/z.go", "z v2") // delta {z}
	for _, c := range []*change.Change{cy, cz} {
		if _, err := a.Analyze(c); err != nil {
			t.Fatal(err)
		}
	}
	// Land an edit to x: δ = {x, y} (y depends on x), so cy intersects and
	// must be dropped while cz survives and is re-homed.
	commit(t, r, "x/x.go", "x v2 landed")
	anz, err := a.Analyze(cz)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ReusedAnalyses != 1 || st.SelectiveInvalidations != 1 {
		t.Fatalf("reused=%d invalidated=%d", st.ReusedAnalyses, st.SelectiveInvalidations)
	}
	if st.CacheHits != 1 {
		t.Fatalf("re-homed analysis should be a cache hit, stats=%+v", st)
	}
	if anz.Head != r.Head().ID {
		t.Fatal("survivor not re-homed to new head")
	}
	if st.AnalyzedChanges != 2 {
		t.Fatalf("survivor was recomputed: analyzed=%d", st.AnalyzedChanges)
	}
	// The re-homed delta must equal what a cold analyzer computes at the
	// new head — names and hashes.
	fresh, err := New(r).Analyze(cz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(anz.Delta, fresh.Delta) {
		t.Fatalf("re-homed delta %v != fresh delta %v", anz.Delta, fresh.Delta)
	}
	// cy recomputes from scratch at the new head.
	if _, err := a.Analyze(cy); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().AnalyzedChanges; got != 3 {
		t.Fatalf("analyzed=%d, want 3", got)
	}
}

func TestStructureChangingHeadMoveInvalidatesAll(t *testing.T) {
	r := testRepo()
	a := New(r)
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	// Landing a BUILD edit changes graph structure: nothing may survive,
	// even target-disjoint content analyses.
	commit(t, r, "y/BUILD", "target y srcs=y.go")
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.ReusedAnalyses != 0 || st.SelectiveInvalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPathOverlapInvalidatesUnownedFiles(t *testing.T) {
	// A pending change creating a file no target owns has an empty delta;
	// disjointness alone would keep it across any head move. If the head
	// movement lands that same file, the patch no longer applies — the path
	// condition must catch it.
	r := testRepo()
	a := New(r)
	cn := mkChange(t, r, "cn", "notes.txt", "mine")
	if _, err := a.Analyze(cn); err != nil {
		t.Fatal(err)
	}
	commit(t, r, "notes.txt", "theirs")
	if _, err := a.Analyze(cn); err == nil {
		t.Fatal("stale create patch must fail after the path landed")
	}
	if st := a.Stats(); st.ReusedAnalyses != 0 || st.SelectiveInvalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPairCacheSurvivesRehoming(t *testing.T) {
	r := testRepo()
	a := New(r)
	cy := mkChange(t, r, "cy", "y/y.go", "y v2")
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	conf, err := a.Conflicts(cy, cz)
	if err != nil || conf {
		t.Fatalf("conf = %v, %v", conf, err)
	}
	// Land an unowned file: empty head delta, both analyses re-home with
	// their identities intact, so the memoized verdict still applies.
	commit(t, r, "docsfile", "d")
	conf, err = a.Conflicts(cy, cz)
	if err != nil || conf {
		t.Fatalf("conf after re-home = %v, %v", conf, err)
	}
	st := a.Stats()
	if st.PairCacheHits != 1 {
		t.Fatalf("pair cache hits = %d, stats=%+v", st.PairCacheHits, st)
	}
	if st.CheapComparisons != 1 {
		t.Fatalf("verdict recomputed: cheap=%d", st.CheapComparisons)
	}
	if st.ReusedAnalyses != 2 {
		t.Fatalf("reused = %d", st.ReusedAnalyses)
	}
}

func TestBuildGraphIncrementalReuse(t *testing.T) {
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "x/x.go", "x v2")
	c2 := mkChange(t, r, "c2", "y/y.go", "y v2")
	c3 := mkChange(t, r, "c3", "z/z.go", "z v2")
	pending := []*change.Change{c1, c2, c3}
	g, failed := a.BuildGraph(pending)
	if len(failed) != 0 || !g.Conflict("c1", "c2") || g.Conflict("c1", "c3") {
		t.Fatalf("first build wrong: failed=%v", failed)
	}
	st := a.Stats()
	if st.GraphRebuilds != 1 || st.PairsRescanned != 3 {
		t.Fatalf("first build stats = %+v", st)
	}
	// Same pending set, no head move: every pair carries over untouched.
	g2, _ := a.BuildGraph(pending)
	st = a.Stats()
	if st.GraphUpdates != 1 || st.PairsReused != 3 || st.PairsRescanned != 3 {
		t.Fatalf("second build stats = %+v", st)
	}
	if !g2.Conflict("c1", "c2") || g2.Conflict("c2", "c3") {
		t.Fatal("second build edges wrong")
	}
	// Dropping c1 from pending removes its vertex and its cached state.
	g3, _ := a.BuildGraph([]*change.Change{c2, c3})
	if g3.Len() != 2 || g3.Conflict("c2", "c3") {
		t.Fatalf("third build wrong: len=%d", g3.Len())
	}
	// Returned graphs are clones: mutating one must not leak into the memo.
	g3.AddEdge("c2", "c3")
	g4, _ := a.BuildGraph([]*change.Change{c2, c3})
	if g4.Conflict("c2", "c3") {
		t.Fatal("caller mutation leaked into the memoized graph")
	}
}

func TestUpdateGraphConservativeEdgeForStaleAnalysis(t *testing.T) {
	// White-box: a pair whose analysis is still stale after the bounded
	// retry gets a conservative edge; once re-analyzed at the current head
	// the rescan removes it.
	r := testRepo()
	a := New(r)
	c1 := mkChange(t, r, "c1", "y/y.go", "y v2")
	c2 := mkChange(t, r, "c2", "z/z.go", "z v2")
	an1, err := a.Analyze(c1)
	if err != nil {
		t.Fatal(err)
	}
	an2, err := a.Analyze(c2)
	if err != nil {
		t.Fatal(err)
	}
	stale := *an2
	stale.Head = "elsewhere"
	a.mu.Lock()
	g := a.updateGraphLocked([]*Analysis{an1, &stale})
	a.mu.Unlock()
	if !g.Conflict("c1", "c2") {
		t.Fatal("stale pair must get a conservative edge")
	}
	if st := a.Stats(); st.ConservativeEdges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	a.mu.Lock()
	g = a.updateGraphLocked([]*Analysis{an1, an2})
	a.mu.Unlock()
	if g.Conflict("c1", "c2") {
		t.Fatal("rescan at current head must remove the conservative edge")
	}
}

func TestAnalyzerLifecycleEvents(t *testing.T) {
	r := testRepo()
	a := New(r)
	bus := events.NewBus(64)
	a.SetEvents(bus)
	cz := mkChange(t, r, "cz", "z/z.go", "z v2")
	cy := mkChange(t, r, "cy", "y/y.go", "y v2")
	for _, c := range []*change.Change{cz, cy} {
		if _, err := a.Analyze(c); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, r, "x/x.go", "x v2") // drops cy (δ includes y), re-homes cz
	if _, err := a.Analyze(cz); err != nil {
		t.Fatal(err)
	}
	counts := map[events.Type]int{}
	for _, ev := range bus.Since(0) {
		counts[ev.Type]++
	}
	if counts[events.TypeAnalysisStarted] != 2 {
		t.Fatalf("started = %d", counts[events.TypeAnalysisStarted])
	}
	if counts[events.TypeAnalysisReused] != 1 || counts[events.TypeAnalysisInvalidated] != 1 {
		t.Fatalf("events = %v", counts)
	}
}
