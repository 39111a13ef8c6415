package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/repo"
)

const (
	// subtrees is the number of independent target subtrees in the
	// generated repository; changes to one subtree conflict only with each
	// other.
	subtrees = 64
	// brokenEvery: one submission in this many carries content the build
	// rejects, so the green invariant is exercised on every run.
	brokenEvery = 37
)

// submission is one generated file-create change and its ground truth.
type submission struct {
	id      string
	path    string
	content string
	subtree string
	broken  bool
	hotfix  bool
}

// makeSubmissions generates n file creates. Submission i lands in slot i/64
// of a subtree picked by a seed-shuffled order, so consecutive submissions
// spread over subtrees and each subtree's creates form a chain. Exactly one
// submission in every block of brokenEvery is broken, at a seed-picked
// position.
func makeSubmissions(rng *rand.Rand, prefix string, n int) []submission {
	order := rng.Perm(subtrees)
	broken := make([]bool, n)
	for b := 0; b*brokenEvery < n; b++ {
		if k := b*brokenEvery + rng.Intn(brokenEvery); k < n {
			broken[k] = true
		}
	}
	subs := make([]submission, n)
	for i := range subs {
		dir := fmt.Sprintf("sub%03d", order[i%subtrees])
		content := fmt.Sprintf("content %d", i)
		if broken[i] {
			content = "BROKEN " + content
		}
		subs[i] = submission{
			id:      fmt.Sprintf("%s-%05d", prefix, i),
			path:    fmt.Sprintf("%s/f%d.go", dir, i/subtrees),
			content: content,
			subtree: dir,
			broken:  broken[i],
		}
	}
	return subs
}

// markHotfixes makes one submission in every `every` a P0 hotfix, each in a
// different subtree at a seed-picked position of that subtree's chain.
func markHotfixes(rng *rand.Rand, subs []submission, every int) {
	chains := len(subs) / subtrees
	lanes := rng.Perm(subtrees)[:len(subs)/every]
	for _, lane := range lanes {
		subs[rng.Intn(chains)*subtrees+lane].hotfix = true
	}
}

// slotsFor is the number of file slots per subtree n submissions need.
func slotsFor(n int) int { return (n + subtrees - 1) / subtrees }

// benchRepo builds the 64-subtree repository: each subtree is one target
// whose sources are lib.go plus every slot file a submission may create.
func benchRepo(slots int) *repo.Repo {
	var srcs strings.Builder
	srcs.WriteString("lib.go")
	for s := 0; s < slots; s++ {
		fmt.Fprintf(&srcs, ",f%d.go", s)
	}
	files := map[string]string{}
	for i := 0; i < subtrees; i++ {
		dir := fmt.Sprintf("sub%03d", i)
		files[dir+"/BUILD"] = "target t srcs=" + srcs.String()
		files[dir+"/lib.go"] = "lib v1"
	}
	return repo.New(files)
}

// instantRunner builds instantly and fails any step whose target's subtree
// holds broken content. It probes only the broken files of that subtree, so
// the harness's own cost per step stays constant as the tree grows.
func instantRunner(subs []submission) buildsys.RunnerFunc {
	broken := map[string][]string{}
	for _, s := range subs {
		if s.broken {
			broken[s.subtree] = append(broken[s.subtree], s.path)
		}
	}
	return func(_ context.Context, _ change.BuildStep, target string, snap repo.Snapshot) error {
		dir := strings.TrimPrefix(target, "//")
		if i := strings.IndexByte(dir, ':'); i >= 0 {
			dir = dir[:i]
		}
		for _, p := range broken[dir] {
			if c, ok := snap.Read(p); ok && strings.Contains(c, "BROKEN") {
				return fmt.Errorf("compile error: broken source %s", p)
			}
		}
		return nil
	}
}

// newChange builds the change a submit request for s would produce.
func newChange(s submission) *change.Change {
	class := change.ClassNormal
	if s.hotfix {
		class = change.ClassHotfix
	}
	return &change.Change{
		ID:          change.ID(s.id),
		Author:      change.Developer{Name: "dev", Team: "load", Level: 3},
		Description: "create " + s.path,
		Patch: repo.Patch{Changes: []repo.FileChange{{
			Path: s.path, Op: repo.OpCreate, NewContent: s.content,
		}}},
		BuildSteps: change.DefaultBuildSteps(),
		Revision:   &change.Revision{ID: change.RevisionID("r-" + s.id), TestPlan: true},
		Stats:      change.Stats{FilesChanged: 1},
		Class:      class,
	}
}

// submitBody is the JSON submit request for s.
func submitBody(s submission) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"author":"dev","team":"load",`+
		`"files":[{"path":%q,"op":"create","content":%q}],"test_plan":true}`,
		s.id, s.path, s.content))
}
