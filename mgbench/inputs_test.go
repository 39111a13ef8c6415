package main

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

func TestInputsFollowTheSeed(t *testing.T) {
	gen := func(seed int64) []submission {
		rng := rand.New(rand.NewSource(seed))
		subs := makeSubmissions(rng, "b", backlogChains*subtrees)
		markHotfixes(rng, subs, hotfixEvery)
		return subs
	}
	a, b := gen(7), gen(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(a, gen(8)) {
		t.Fatal("different seeds generated the same inputs")
	}

	broken, hotfixes := 0, 0
	hotSubtrees := map[string]bool{}
	chain := map[string]int{}
	for i, s := range a {
		if s.broken {
			broken++
		}
		if i%brokenEvery == brokenEvery-1 || i == len(a)-1 {
			if want := i/brokenEvery + 1; broken > want {
				t.Fatalf("%d broken by submission %d, want at most one per %d", broken, i, brokenEvery)
			}
		}
		if s.hotfix {
			hotfixes++
			if hotSubtrees[s.subtree] {
				t.Errorf("two hotfixes in %s", s.subtree)
			}
			hotSubtrees[s.subtree] = true
		}
		// Each subtree's creates fill its slots in order: a chain.
		if want := "f" + strconv.Itoa(chain[s.subtree]) + ".go"; s.path != s.subtree+"/"+want {
			t.Fatalf("%s has path %s, want %s/%s", s.id, s.path, s.subtree, want)
		}
		chain[s.subtree]++
	}
	if want := (len(a) + brokenEvery - 1) / brokenEvery; broken < want-1 || broken > want {
		t.Errorf("%d broken of %d, want about one per %d", broken, len(a), brokenEvery)
	}
	if hotfixes != len(a)/hotfixEvery {
		t.Errorf("%d hotfixes, want %d", hotfixes, len(a)/hotfixEvery)
	}
	if len(chain) != subtrees {
		t.Errorf("changes land in %d subtrees, want %d", len(chain), subtrees)
	}
	for dir, n := range chain {
		if n != backlogChains {
			t.Errorf("%s has %d changes, want %d", dir, n, backlogChains)
		}
	}
}
