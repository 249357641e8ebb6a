package medium

import (
	"math/rand/v2"
	"testing"
)

// componentOracle labels g's connected components by breadth-first search
// over pairwise Conflicts queries, numbering them in order of their lowest
// link, and decides each component's clique flag by checking every pair of
// its links.
func componentOracle(g *Graph) (label []int, clique []bool) {
	n := g.Links()
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		c := len(clique)
		label[s] = c
		members := []int{s}
		for q := []int{s}; len(q) > 0; q = q[1:] {
			for j := 0; j < n; j++ {
				if label[j] < 0 && g.Conflicts(q[0], j) {
					label[j] = c
					members = append(members, j)
					q = append(q, j)
				}
			}
		}
		all := true
		for _, i := range members {
			for _, j := range members {
				all = all && g.Conflicts(i, j)
			}
		}
		clique = append(clique, all)
	}
	return label, clique
}

// checkComponents compares g's component index against the oracle.
func checkComponents(t *testing.T, name string, g *Graph) {
	t.Helper()
	label, clique := componentOracle(g)
	if got := g.Components(); got != len(clique) {
		t.Fatalf("%s: %d components, oracle finds %d", name, got, len(clique))
	}
	size := make([]int, len(clique))
	for i, c := range label {
		size[c]++
		if got := g.Component(i); got != c {
			t.Fatalf("%s: link %d in component %d, oracle says %d", name, i, got, c)
		}
	}
	for c := range clique {
		if got := g.ComponentSize(c); got != size[c] {
			t.Errorf("%s: component %d has %d links, oracle counts %d", name, c, got, size[c])
		}
		if got := g.Clique(c); got != clique[c] {
			t.Errorf("%s: component %d clique = %v, oracle says %v", name, c, got, clique[c])
		}
	}
}

// clusteredGraph splits n links into interleaved groups that are cliques
// and bridges pairs across groups with probability bridge, so clique and
// non-clique components of many sizes share one graph.
func clusteredGraph(n, groups int, bridge float64, rng *rand.Rand) *Graph {
	group := make([]int, n)
	for i := range group {
		group[i] = rng.IntN(groups)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if group[i] == group[j] || rng.Float64() < bridge {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestGraphComponentsMatchOracle(t *testing.T) {
	for _, n := range []int{1, 2, 10, 63, 64, 65, 130} {
		checkComponents(t, "complete", CompleteGraph(n))
		isolated, err := NewGraph(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkComponents(t, "isolated", isolated)
		for c := 0; c < isolated.Components(); c++ {
			if !isolated.Clique(c) || isolated.ComponentSize(c) != 1 {
				t.Fatalf("isolated link %d is not a one-link clique", c)
			}
		}
	}
	// Consecutive 10-link cliques and the ring over 130 links straddle the
	// 64-bit words of the bitset rows (clique 60-69, ring edge 63-64).
	var groups [][]int
	for lo := 0; lo < 130; lo += 10 {
		groups = append(groups, []int{lo, lo + 1, lo + 2, lo + 3, lo + 4, lo + 5, lo + 6, lo + 7, lo + 8, lo + 9})
	}
	cliques, err := CliqueGraph(130, groups)
	if err != nil {
		t.Fatal(err)
	}
	checkComponents(t, "cliques-130", cliques)
	if cliques.Components() != 13 || !cliques.Clique(6) {
		t.Fatalf("cliques-130: %d components, clique 6 = %v; want 13 cliques", cliques.Components(), cliques.Clique(6))
	}
	var ring [][2]int
	for i := 0; i < 130; i++ {
		ring = append(ring, [2]int{i, (i + 1) % 130})
	}
	rg, err := NewGraph(130, ring)
	if err != nil {
		t.Fatal(err)
	}
	checkComponents(t, "ring-130", rg)
	if rg.Components() != 1 || rg.Clique(0) {
		t.Fatal("ring-130 must be one non-clique component")
	}
	// Interleaved cliques, one of them a single link.
	mixed, err := CliqueGraph(7, [][]int{{0, 3, 6}, {1, 4}, {2}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	checkComponents(t, "interleaved", mixed)
	for seed := uint64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 1 + rng.IntN(130)
		g, _ := fuzzGraph([]byte{byte(n - 1), byte(rng.IntN(256)), byte(seed)})
		checkComponents(t, "random", g)
		checkComponents(t, "clustered", clusteredGraph(n, 1+rng.IntN(n), rng.Float64()/float64(n), rng))
	}
}

// FuzzGraphComponents checks the component labels, sizes and clique flags
// of a random graph and of a clustered one (interleaved cliques with a few
// bridges) against componentOracle.
func FuzzGraphComponents(f *testing.F) {
	for _, cfg := range [][5]byte{
		{0, 0, 1, 0, 0}, {9, 255, 2, 3, 9}, {63, 8, 3, 9, 200}, {64, 40, 4, 60, 30},
		{129, 2, 5, 13, 255}, {129, 200, 6, 129, 0}, {69, 90, 7, 30, 120},
	} {
		f.Add(cfg[:])
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		g, rest := fuzzGraph(script)
		checkComponents(t, "random", g)
		n := g.Links()
		groups := 1
		if len(rest) > 0 {
			groups += int(rest[0]) % n
		}
		bridge := 0.0
		if len(rest) > 1 {
			bridge = float64(rest[1]) / 255 / float64(n)
		}
		rng := rand.New(rand.NewPCG(uint64(len(script)), uint64(groups)))
		checkComponents(t, "clustered", clusteredGraph(n, groups, bridge, rng))
	})
}
