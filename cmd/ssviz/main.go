// Command ssviz runs a protocol to silence and emits the final
// configuration as Graphviz DOT: colors as fill colors, MIS dominators
// as doubled circles, matched edges in bold. It is for checking a
// protocol's output by eye: no other command draws a configuration.
//
// Usage:
//
//	ssviz -protocol matching -graph rgg -n 24 -seed 3 > out.dot
//	dot -Tsvg out.dot > out.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	selfstab "repro"
	"repro/internal/graph"
)

var palette = []string{
	"lightblue", "lightyellow", "lightpink", "lightgreen", "orange",
	"violet", "cyan", "salmon", "khaki", "plum", "aquamarine", "wheat",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssviz:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssviz", flag.ContinueOnError)
	var (
		protocol  = fs.String("protocol", "coloring", "protocol: coloring|mis|matching")
		graphName = fs.String("graph", "gnp", "topology: "+strings.Join(graph.NamedGenerators(), "|"))
		n         = fs.Int("n", 16, "approximate network size")
		seed      = fs.Uint64("seed", 1, "random seed")
		orient    = fs.Bool("orient", false, "draw the Theorem 4 color orientation (dag) instead of the protocol output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := selfstab.Generate(*graphName, *n, *seed)
	if err != nil {
		return err
	}
	if *orient {
		o, err := graph.OrientByColor(net.Graph, net.Colors)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, graph.Dot(net.Graph, graph.DotOptions{
			Directed: o,
			NodeAttrs: func(p int) string {
				return fmt.Sprintf("label=%q, fillcolor=%q", label(p, net.Colors[p]), fill(net.Colors[p]))
			},
		}))
		return err
	}

	if *protocol != "coloring" && *protocol != "mis" && *protocol != "matching" {
		return fmt.Errorf("unknown protocol %q", *protocol)
	}
	sys, err := selfstab.New(net, *protocol)
	if err != nil {
		return err
	}
	res, err := selfstab.Run(sys, selfstab.Options{Seed: *seed})
	if err != nil {
		return err
	}
	if !res.Silent {
		return fmt.Errorf("no silent configuration within budget")
	}

	opts := graph.DotOptions{}
	switch *protocol {
	case "coloring":
		colors := selfstab.Colors(res.Final)
		opts.NodeAttrs = func(p int) string {
			return fmt.Sprintf("label=%q, fillcolor=%q", label(p, colors[p]), fill(colors[p]))
		}
	case "mis":
		in := selfstab.InMIS(res.Final)
		opts.NodeAttrs = func(p int) string {
			if in[p] {
				return fmt.Sprintf("label=%q, shape=doublecircle, fillcolor=black, fontcolor=white", strconv.Itoa(p))
			}
			return fmt.Sprintf("label=%q", strconv.Itoa(p))
		}
	case "matching":
		matched := map[[2]int]bool{}
		for _, e := range selfstab.MatchedEdges(sys, res.Final) {
			matched[e] = true
		}
		opts.EdgeAttrs = func(u, v int) string {
			if matched[[2]int{u, v}] {
				return "penwidth=3"
			}
			return "style=dashed, color=gray"
		}
	}
	_, err = io.WriteString(out, graph.Dot(net.Graph, opts))
	return err
}

func label(p, color int) string {
	return fmt.Sprintf("%d:c%d", p, color)
}

func fill(color int) string {
	return palette[(color-1)%len(palette)]
}
