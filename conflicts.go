package rtmac

import (
	"fmt"

	"rtmac/internal/medium"
)

// ConflictGraph describes which pairs of links interfere with each other:
// transmissions on two links collide only when the links conflict, and links
// in disjoint neighborhoods transmit concurrently (spatial reuse). The zero
// value is invalid; construct with NewConflictGraph, CompleteConflicts or
// CliqueConflicts. A nil *ConflictGraph in Config.Conflicts means the
// fully-interfering channel of the paper's model (equivalent to the complete
// graph).
type ConflictGraph struct {
	g *medium.Graph
}

// NewConflictGraph builds a conflict graph over `links` links from undirected
// edges {a, b} given as index pairs. Edges are symmetrized and deduplicated;
// self-loops and out-of-range endpoints are errors.
func NewConflictGraph(links int, edges [][2]int) (*ConflictGraph, error) {
	g, err := medium.NewGraph(links, edges)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	return &ConflictGraph{g: g}, nil
}

// CompleteConflicts returns the complete conflict graph on `links` links —
// every pair interferes, which is exactly the fully-interfering channel the
// paper models. A simulation configured with it is byte-identical to one with
// no conflict graph at all.
func CompleteConflicts(links int) (*ConflictGraph, error) {
	if links <= 0 {
		return nil, fmt.Errorf("rtmac: conflict graph needs a positive link count, got %d", links)
	}
	return &ConflictGraph{g: medium.CompleteGraph(links)}, nil
}

// CliqueConflicts builds a union of cliques: within each listed group every
// pair conflicts; links in different groups (and links in no group) do not
// interfere. The canonical spatial-reuse topology: each clique is one
// collision domain.
func CliqueConflicts(links int, cliques [][]int) (*ConflictGraph, error) {
	g, err := medium.CliqueGraph(links, cliques)
	if err != nil {
		return nil, fmt.Errorf("rtmac: %w", err)
	}
	return &ConflictGraph{g: g}, nil
}

// Links returns the number of links the graph covers (zero for the invalid
// zero value).
func (c *ConflictGraph) Links() int {
	if g := c.graph(); g != nil {
		return g.Links()
	}
	return 0
}

// Edges returns the number of undirected conflict edges.
func (c *ConflictGraph) Edges() int {
	if g := c.graph(); g != nil {
		return g.Edges()
	}
	return 0
}

// Complete reports whether every pair of links conflicts; the invalid zero
// value is not complete.
func (c *ConflictGraph) Complete() bool {
	g := c.graph()
	return g != nil && g.Complete()
}

// Conflicts reports whether links a and b interfere (true when a == b). A
// link outside [0, Links()) conflicts with nothing.
func (c *ConflictGraph) Conflicts(a, b int) bool {
	n := c.Links()
	if a < 0 || a >= n || b < 0 || b >= n {
		return false
	}
	return c.g.Conflicts(a, b)
}

func (c *ConflictGraph) String() string {
	if g := c.graph(); g != nil {
		return g.String()
	}
	return "conflicts(invalid)"
}

// graph unwraps the internal representation; nil-safe.
func (c *ConflictGraph) graph() *medium.Graph {
	if c == nil {
		return nil
	}
	return c.g
}

// validate rejects the zero value, which would otherwise read as the
// fully-interfering channel a nil graph stands for. A nil graph is valid.
func (c *ConflictGraph) validate() error {
	if c != nil && c.g == nil {
		return fmt.Errorf("rtmac: zero-value ConflictGraph; build one with NewConflictGraph, CompleteConflicts or CliqueConflicts")
	}
	return nil
}
