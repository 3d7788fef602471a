package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements a small text format for exchanging networks with
// external tools:
//
//	# comment
//	graph <name>
//	n <number-of-processes>
//	e <u> <v>        (one line per edge, 0-based ids)
//
// Port numbering follows edge order, exactly like Builder.

// Encode writes g in the text format.
func Encode(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %s\n", sanitizeName(g.Name()))
	fmt.Fprintf(bw, "n %d\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// EncodeString renders g in the text format.
func EncodeString(g *Graph) string {
	var sb strings.Builder
	_ = Encode(&sb, g)
	return sb.String()
}

// Decode parses the text format into a Graph.
func Decode(r io.Reader) (*Graph, error) {
	scanner := bufio.NewScanner(r)
	var (
		name    = "decoded"
		n       = -1
		b       *Builder
		lineNum int
	)
	for scanner.Scan() {
		lineNum++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'graph <name>'", lineNum)
			}
			name = fields[1]
		case "n":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'n <count>'", lineNum)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("graph: line %d: bad process count %q", lineNum, fields[1])
			}
			if err := fits(v, 0); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNum, err)
			}
			n = v
			b = NewBuilder(n, name)
		case "e":
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before 'n' declaration", lineNum)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'e <u> <v>'", lineNum)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", lineNum)
			}
			if err := b.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNum, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNum, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("graph: missing 'n' declaration")
	}
	g := b.Build()
	// Rename with the declared name (Builder already carries it).
	return g, nil
}

// DecodeString parses the text format from a string.
func DecodeString(s string) (*Graph, error) {
	return Decode(strings.NewReader(s))
}

func sanitizeName(name string) string {
	if name == "" {
		return "g"
	}
	return strings.Join(strings.Fields(name), "-")
}

// CanonicalEdgeList returns the sorted "u-v" edge strings, a convenient
// equality witness for tests and goldens.
func CanonicalEdgeList(g *Graph) []string {
	edges := g.Edges()
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = fmt.Sprintf("%d-%d", e[0], e[1])
	}
	sort.Strings(out)
	return out
}
