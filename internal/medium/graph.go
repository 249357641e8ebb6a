package medium

import (
	"fmt"
	"math/bits"
)

// Graph is an undirected conflict (interference) graph over the links of a
// medium: an edge {i, j} means links i and j interfere — their transmissions
// may not overlap in time. The complete graph reproduces the paper's
// fully-interfering channel; sparser graphs enable spatial reuse, where
// non-conflicting links transmit concurrently.
//
// The adjacency is stored as per-link bitset rows, so conflict queries and
// closed-neighborhood walks are allocation-free. Links in different
// connected components share no conflict, so each component is a channel of
// its own; the graph labels them once at construction and flags the
// components that are cliques (every pair of their links conflicts). A Graph
// is immutable after construction and safe to share between a medium, its
// contention coordinator, and the protocols.
type Graph struct {
	n     int
	words int
	// rows is the open adjacency (no self loops): rows[i*words:...] has bit j
	// set iff {i, j} is an edge.
	rows []uint64
	// closed is rows with each link's own bit set — the closed neighborhood
	// used for carrier-sense bookkeeping (a link is "busy" to itself).
	closed   []uint64
	edges    int
	complete bool
	// comp labels each link with its connected component, numbered in order
	// of the components' lowest links; size counts each component's links
	// and clique is 1 for the components whose links all conflict pairwise.
	comp   []int
	size   []int
	clique []int
}

// NewGraph builds a conflict graph over n links from an edge list. Edges are
// symmetrized (an edge given as [i, j] also blocks [j, i]) and duplicates are
// idempotent; self-loops and out-of-range endpoints are rejected.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("medium: conflict graph needs at least 1 link, got %d", n)
	}
	g := newEmptyGraph(n)
	for _, e := range edges {
		i, j := e[0], e[1]
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("medium: conflict edge [%d, %d] outside [0, %d)", i, j, n)
		}
		if i == j {
			return nil, fmt.Errorf("medium: conflict edge [%d, %d] is a self-loop", i, j)
		}
		g.setEdge(i, j)
	}
	g.finalize()
	return g, nil
}

// CompleteGraph returns the fully-interfering conflict graph over n links —
// the paper's single collision domain, and the graph a medium built with no
// graph at all uses.
func CompleteGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("medium: complete conflict graph needs at least 1 link, got %d", n))
	}
	g := new(Graph)
	g.initComplete(n, make([]uint64, 2*n*graphWords(n)))
	return g
}

// initComplete makes g the complete graph over n links, carving its rows and
// closed rows from buf, which holds 2·n·graphWords(n) zeroed words.
func (g *Graph) initComplete(n int, buf []uint64) {
	words := graphWords(n)
	*g = Graph{n: n, words: words, rows: buf[: n*words : n*words], closed: buf[n*words:]}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.setEdge(i, j)
		}
	}
	g.finalize()
}

// CliqueGraph returns the union of complete subgraphs over the given link
// sets — e.g. two disjoint cells that do not hear each other. Overlapping
// cliques are allowed; duplicate membership is idempotent.
func CliqueGraph(n int, cliques [][]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("medium: conflict graph needs at least 1 link, got %d", n)
	}
	g := newEmptyGraph(n)
	for ci, clique := range cliques {
		for _, i := range clique {
			if i < 0 || i >= n {
				return nil, fmt.Errorf("medium: clique %d: link %d outside [0, %d)", ci, i, n)
			}
		}
		for a := 0; a < len(clique); a++ {
			for b := a + 1; b < len(clique); b++ {
				if clique[a] != clique[b] {
					g.setEdge(clique[a], clique[b])
				}
			}
		}
	}
	g.finalize()
	return g, nil
}

// graphWords is the number of bitset words per row over n links.
func graphWords(n int) int { return (n + 63) / 64 }

func newEmptyGraph(n int) *Graph {
	words := graphWords(n)
	return &Graph{n: n, words: words, rows: make([]uint64, n*words)}
}

func (g *Graph) setEdge(i, j int) {
	g.rows[i*g.words+j/64] |= 1 << uint(j%64)
	g.rows[j*g.words+i/64] |= 1 << uint(i%64)
}

// finalize derives the closed rows (into storage the caller may have
// provided), the edge count, the completeness flag and the components from
// the open adjacency.
func (g *Graph) finalize() {
	if g.closed == nil {
		g.closed = make([]uint64, len(g.rows))
	}
	copy(g.closed, g.rows)
	bitsSet := 0
	for i := 0; i < g.n; i++ {
		g.closed[i*g.words+i/64] |= 1 << uint(i%64)
		for w := 0; w < g.words; w++ {
			bitsSet += bits.OnesCount64(g.rows[i*g.words+w])
		}
	}
	g.edges = bitsSet / 2
	g.complete = g.edges == g.n*(g.n-1)/2
	g.findComponents()
}

// findComponents labels the connected components by union-find over the
// edges, each set rooted at its lowest link, and flags the cliques: a
// component of s links is one iff each of its links has degree s-1.
func (g *Graph) findComponents() {
	buf := make([]int, 3*g.n)
	label := buf[:g.n:g.n]
	for i := range label {
		label[i] = i
	}
	root := func(i int) int {
		for label[i] != i {
			label[i] = label[label[i]]
			i = label[i]
		}
		return i
	}
	for i := 0; i < g.n; i++ {
		for w, word := range g.rows[i*g.words : (i+1)*g.words] {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				if j <= i {
					continue
				}
				if ri, rj := root(i), root(j); ri < rj {
					label[rj] = ri
				} else if rj < ri {
					label[ri] = rj
				}
			}
		}
	}
	// Parents point to lower links: flatten every link onto its root, then
	// number the roots in ascending order, each before the links under it.
	for i := range label {
		label[i] = root(i)
	}
	comps := 0
	for i, r := range label {
		if r == i {
			label[i] = comps
			comps++
		} else {
			label[i] = label[r]
		}
	}
	g.comp = label
	g.size = buf[g.n : g.n+comps : g.n+comps]
	g.clique = buf[2*g.n : 2*g.n+comps]
	for _, c := range label {
		g.size[c]++
	}
	for c := range g.clique {
		g.clique[c] = 1
	}
	for i, c := range label {
		if g.Degree(i) != g.size[c]-1 {
			g.clique[c] = 0
		}
	}
}

// Links returns the number of links the graph covers.
func (g *Graph) Links() int { return g.n }

// Edges returns the number of undirected conflict edges.
func (g *Graph) Edges() int { return g.edges }

// Complete reports whether every pair of distinct links conflicts — the
// fully-interfering channel of the paper.
func (g *Graph) Complete() bool { return g.complete }

// Conflicts reports whether links i and j interfere. A link always conflicts
// with itself (it cannot overlap its own transmissions).
func (g *Graph) Conflicts(i, j int) bool {
	if i == j {
		return true
	}
	return g.rows[i*g.words+j/64]&(1<<uint(j%64)) != 0
}

// Degree returns the number of links conflicting with link i (i excluded).
func (g *Graph) Degree(i int) int {
	d := 0
	for w := 0; w < g.words; w++ {
		d += bits.OnesCount64(g.rows[i*g.words+w])
	}
	return d
}

// Components returns the number of connected components.
func (g *Graph) Components() int { return len(g.size) }

// Component returns the connected component of link i, a label in
// [0, Components()); components are numbered in order of their lowest link.
func (g *Graph) Component(i int) int { return g.comp[i] }

// ComponentSize returns the number of links in component c.
func (g *Graph) ComponentSize(c int) int { return g.size[c] }

// Clique reports whether every pair of links in component c conflicts. A
// clique component is one collision domain, like the paper's channel; an
// isolated link is a clique of one.
func (g *Graph) Clique(c int) bool { return g.clique[c] != 0 }

// ClosedRow returns link i's closed-neighborhood bitset (i's own bit plus
// every conflicting link). The returned slice aliases the graph's storage
// and must not be modified; callers iterate it allocation-free with
// math/bits.
func (g *Graph) ClosedRow(i int) []uint64 {
	return g.closed[i*g.words : (i+1)*g.words]
}

// EachEdge calls fn once per undirected edge with i < j, in ascending (i, j)
// order — the deterministic order the telemetry stream records conflicts in.
func (g *Graph) EachEdge(fn func(i, j int)) {
	for i := 0; i < g.n; i++ {
		row := g.rows[i*g.words : (i+1)*g.words]
		for w, word := range row {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if j > i {
					fn(i, j)
				}
			}
		}
	}
}

// String aids debugging.
func (g *Graph) String() string {
	if g.complete {
		return fmt.Sprintf("conflicts(complete, %d links)", g.n)
	}
	return fmt.Sprintf("conflicts(%d links, %d edges)", g.n, g.edges)
}
