package graph

import (
	"slices"
	"strings"
	"testing"
)

// FuzzGraphEncodingRoundTrip feeds arbitrary bytes to the text-format
// decoder. Inputs the decoder accepts must round-trip: re-encoding the
// decoded graph yields a canonical form that decodes to an equal graph
// and re-encodes to identical bytes, and the decoded graph satisfies the
// structural bounds the format promises (edge endpoints in range, no
// self-loops or duplicate edges — enforced here via the port structure).
func FuzzGraphEncodingRoundTrip(f *testing.F) {
	for _, seed := range encodingSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkEncodingRoundTrip)
}

// encodingSeeds is FuzzGraphEncodingRoundTrip's seed corpus.
func encodingSeeds() [][]byte {
	return [][]byte{
		[]byte("graph p\nn 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"),
		[]byte(EncodeString(Cycle(7))),
		[]byte(EncodeString(Star(6))),
		[]byte(EncodeString(Grid(3, 3))),
		[]byte("# comment\ngraph g\nn 2\ne 0 1\n"),
		[]byte("n 3\ne 0 1\ngraph late-name\ne 1 2\n"),
		[]byte("n 0\n"),
	}
}

// checkEncodingRoundTrip is the property FuzzGraphEncodingRoundTrip
// checks on one input.
func checkEncodingRoundTrip(t *testing.T, data []byte) {
	g, err := DecodeString(string(data))
	if err != nil {
		return // rejected inputs are out of scope
	}
	if g.N() < 0 || g.M() < 0 {
		t.Fatalf("decoded graph with negative size: n=%d m=%d", g.N(), g.M())
	}
	degSum := 0
	for p := 0; p < g.N(); p++ {
		degSum += g.Degree(p)
		for port := 1; port <= g.Degree(p); port++ {
			q := g.Neighbor(p, port)
			if q < 0 || q >= g.N() || q == p {
				t.Fatalf("process %d port %d: bad neighbor %d (n=%d)", p, port, q, g.N())
			}
			if back := g.BackPort(p, port); g.Neighbor(q, back) != p {
				t.Fatalf("port symmetry broken at %d<->%d", p, q)
			}
		}
	}
	if degSum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m = %d", degSum, 2*g.M())
	}

	// Encode canonicalizes edge order (ports follow edge order in
	// this format), so one round trip preserves the edge set, and
	// the canonical form is a full fixed point: re-decoding it
	// reproduces the graph ports and all.
	enc := EncodeString(g)
	g2, err := DecodeString(enc)
	if err != nil {
		t.Fatalf("re-decoding the canonical encoding failed: %v\n%s", err, enc)
	}
	if !slices.Equal(CanonicalEdgeList(g), CanonicalEdgeList(g2)) || g.N() != g2.N() {
		t.Fatalf("round trip changed the edge set:\nfirst  %v\nsecond %v\nencoding:\n%s", g, g2, enc)
	}
	if enc2 := EncodeString(g2); enc2 != enc {
		t.Fatalf("canonical encoding not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", enc, enc2)
	}
	g3, err := DecodeString(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(g3) {
		t.Fatalf("decoding the canonical encoding twice gave different port numberings:\n%s", enc)
	}
	if strings.ContainsAny(g2.Name(), " \t") {
		t.Fatalf("decoded name %q contains whitespace", g2.Name())
	}
}
