package topo

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// referenceRouteLinks is RouteLinks as it was before the routing index:
// name-keyed maps and a scan of the sorted names per extraction. It is
// the oracle the indexed RouteLinks must match link for link.
func referenceRouteLinks(g *Graph, src, dst string) ([]*Link, error) {
	if !g.nodes[src] || !g.nodes[dst] {
		return nil, fmt.Errorf("topo: unknown node in %s -> %s", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("topo: src equals dst")
	}
	// Adjacency with deterministic ordering.
	adj := map[string][]*Link{}
	for _, l := range g.links {
		adj[l.From] = append(adj[l.From], l)
	}

	dist := map[string]float64{src: 0}
	prev := map[string]*Link{}
	visited := map[string]bool{}
	// All nodes in sorted order, once: the extraction scan below walks
	// this list so ties break by name without re-sorting the frontier
	// on every pop (which made routing quadratic-with-a-sort on the
	// metro-scale graphs).
	names := g.Nodes()
	for {
		// Extract the unvisited node with the smallest distance
		// (ties by name for determinism). Linear scan: even the metro
		// graphs have only a few hundred nodes.
		cur := ""
		best := math.Inf(1)
		for _, n := range names {
			if d, ok := dist[n]; ok && !visited[n] && d < best {
				best = d
				cur = n
			}
		}
		if cur == "" {
			break
		}
		if cur == dst {
			break
		}
		visited[cur] = true
		for _, l := range adj[cur] {
			nd := dist[cur] + l.Weight
			if old, ok := dist[l.To]; !ok || nd < old {
				dist[l.To] = nd
				prev[l.To] = l
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return nil, fmt.Errorf("topo: no path %s -> %s", src, dst)
	}
	var path []*Link
	for at := dst; at != src; {
		l := prev[at]
		if l == nil {
			return nil, fmt.Errorf("topo: no path %s -> %s", src, dst)
		}
		path = append(path, l)
		at = l.From
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// fuzzNames are the fuzzed graph's node names by index. Their sorted
// order is not their index order, so a tie broken by index instead of
// by name shows.
var fuzzNames = []string{"h", "c", "k", "a", "f", "b", "l", "e", "j", "d", "i", "g"}

// checkAllPairs routes every ordered pair of names, unknown and equal
// ones included, through RouteLinks and the reference.
func checkAllPairs(t *testing.T, g *Graph, names []string) {
	t.Helper()
	for _, src := range names {
		for _, dst := range names {
			got, gotErr := g.RouteLinks(src, dst)
			want, wantErr := referenceRouteLinks(g, src, dst)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s -> %s: error %v, reference %v", src, dst, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s -> %s: %d links, reference %d", src, dst, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s -> %s: link %d is %s->%s (w %g), reference %s->%s (w %g)", src, dst, i,
						got[i].From, got[i].To, got[i].Weight, want[i].From, want[i].To, want[i].Weight)
				}
			}
		}
	}
}

// FuzzRouteLinks builds a graph of at most 12 nodes from the input and
// checks RouteLinks against the reference on every ordered pair. The
// first byte sets the node count (2 + b%11); then each three bytes
// (from, to, ctl) are one step: from == to adds nothing, anything
// else adds a link (a duplex pair when ctl/3 is odd) of propagation
// delay 0, 1 ms or 2 ms by ctl%3, so weights are 1, 1e-3 or 2e-3 and
// ties are common. When ctl/6 is odd every pair is also checked right
// after the step, so a later step must invalidate the index. Parallel
// links, duplex pairs and unreachable pairs all occur. The committed
// corpus holds an equal-weight ring, a parallel pair and an unreachable
// destination.
func FuzzRouteLinks(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+3*48 {
			return
		}
		names := fuzzNames[:2+int(data[0])%11]
		g := New()
		for i := 1; i+2 < len(data); i += 3 {
			from, to := names[int(data[i])%len(names)], names[int(data[i+1])%len(names)]
			ctl := data[i+2]
			gamma := [3]float64{0, 1e-3, 2e-3}[ctl%3]
			switch {
			case from == to:
			case ctl/3%2 == 1:
				if _, _, err := g.AddDuplex(from, to, 1e6, gamma); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := g.AddLink(from, to, 1e6, gamma); err != nil {
					t.Fatal(err)
				}
			}
			if ctl/6%2 == 1 {
				checkAllPairs(t, g, names)
			}
		}
		checkAllPairs(t, g, names)
	})
}

// TestRouteIndexFollowsGraph: the index RouteLinks built must not
// outlive a change to the graph.
func TestRouteIndexFollowsGraph(t *testing.T) {
	g := New()
	g.AddLink("a", "b", 1e6, 1e-3)
	g.AddLink("b", "c", 1e6, 1e-3)
	if links, err := g.RouteLinks("a", "c"); err != nil || len(links) != 2 {
		t.Fatalf("a -> c = %v, %v", links, err)
	}
	short, err := g.AddLink("a", "c", 1e6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if links, err := g.RouteLinks("a", "c"); err != nil || len(links) != 1 || links[0] != short {
		t.Fatalf("after adding a shorter link, a -> c = %v, %v", links, err)
	}
	// A node added after routing is known, and unreachable both ways.
	if _, err := g.AddLink("z", "y", 1e6, 1e-3); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"a", "z"}, {"z", "a"}} {
		links, err := g.RouteLinks(pair[0], pair[1])
		if err == nil || !strings.Contains(err.Error(), "no path") {
			t.Errorf("%s -> %s = %v, %v; want no path", pair[0], pair[1], links, err)
		}
	}
}

// TestRouteConcurrent: goroutines racing to route on a graph that has
// no index yet get the serial answers (run it under -race).
func TestRouteConcurrent(t *testing.T) {
	cfg := DefaultMetro(16, 12)
	var pairs [][2]string
	for i := 0; i < cfg.Rings; i++ {
		for k := 0; k < cfg.Rings; k++ {
			for j := 0; j < cfg.RingSize; j++ {
				pairs = append(pairs, [2]string{MetroHub(i), MetroNode(k, j)})
			}
		}
	}
	// routes answers every pair as indices into g.Links(), so answers
	// from two graphs of the same construction compare.
	routes := func(g *Graph, start int) ([][]int, error) {
		idx := make(map[*Link]int, len(g.Links()))
		for i, l := range g.Links() {
			idx[l] = i
		}
		out := make([][]int, len(pairs))
		for n := range pairs {
			p := (start + n) % len(pairs)
			links, err := g.RouteLinks(pairs[p][0], pairs[p][1])
			if err != nil {
				return nil, err
			}
			for _, l := range links {
				out[p] = append(out[p], idx[l])
			}
		}
		return out, nil
	}
	serial, err := Metro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := routes(serial, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Metro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]int, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = routes(g, w*len(pairs)/len(got))
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		for p := range pairs {
			if !slices.Equal(got[w][p], want[p]) {
				t.Fatalf("goroutine %d: %s -> %s = links %v, serial %v", w, pairs[p][0], pairs[p][1], got[w][p], want[p])
			}
		}
	}
}
