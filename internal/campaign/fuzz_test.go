package campaign

import (
	"reflect"
	"testing"
)

// FuzzParseCampaign drives the strict DSL parser with arbitrary input:
// it must never panic, and every accepted source must canonicalize to a
// fixed point — Parse(spec.String()) succeeds, yields a structurally
// identical spec, and Strings to the same bytes (the parse→String→parse
// round-trip contract the CLI's -print and the rewired experiments rely
// on). The committed corpus under testdata/fuzz/ runs as plain tests on
// every `go test`; `make fuzz-smoke` fuzzes for a short budget.
func FuzzParseCampaign(f *testing.F) {
	f.Add("campaign t\ngraph path 4\nprotocol coloring\n")
	f.Add("campaign full # c\nseed 7\ntrials 2\nmax-steps 5000\nsuffix-rounds 8\n" +
		"key {graph}|{protocol}|{daemon}|{n}\n" +
		"graph cycle 5..9/2\ngraph regular 8 d=3\ngraph gnp 10 p=0.35\n" +
		"protocol coloring mis\ndaemon synchronous central-rr\nmetrics silent rounds\n")
	f.Add("campaign faulty\ngraph torus 9\nprotocol matching\n" +
		"adversary cluster k=1,2 inject=on-silence:3\nadversary crash k=4 inject=every:100:2\n")
	f.Add("campaign x\nkey {graph}|{protocol}|cluster={k}\ngraph grid 16\n" +
		"protocol coloring mis matching\nadversary cluster k=1,2,4,8,16 inject=at-start\n")
	f.Add("campaign c\ngraph cycle 9\nprotocol coloring\nchurn crashjoin k=1,2 inject=on-silence:2\n")
	f.Add("campaign cc\ngraph grid 16\nprotocol coloring\nadversary uniform k=1 inject=on-silence:2\n" +
		"churn rewire k=2 inject=on-silence:2\nmetrics silent churn-events\n")
	f.Add("campaign suite\ngraph suite\ngraph suite quick\nprotocol coloring\n")
	f.Add("campaign width\ngraph torus 12 w=3\ngraph grid 8..16/4 w=4\nprotocol mis\n")
	f.Add("campaign seeded\ngraph gnp 8 seed=12345\ngraph regular 8 d=3 seed=0\nprotocol mis\n")
	f.Add("campaign per-process\nsuffix-rounds 6n\ngraph path 4\nprotocol coloring\n")
	f.Add("campaign bad\ngraph path 0\n")
	f.Add("seed 5\ncampaign late\n")
	f.Add("campaign t\ngraph rgg 12 p=0.4\nprotocol frozen bfstree\ndaemon laziest-fair\n")
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		canon := spec.String()
		spec2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\nsource: %q\ncanonical: %q", err, src, canon)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("re-parsed spec differs:\nsource: %q\n%+v\n%+v", src, spec, spec2)
		}
		if canon2 := spec2.String(); canon != canon2 {
			t.Fatalf("String not a fixed point:\nsource: %q\n%q\n%q", src, canon, canon2)
		}
	})
}
