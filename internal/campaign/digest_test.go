package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/obs"
)

// benchCampaignDigests pins the bytes the three benchmark campaigns
// render, each read in place from bench/campaigns with its trials line
// rewritten to 2 and its seed line to 2009: the SHA-256 of the JSONL, of
// the canonical event log, of the summary table, of its CSV and of the
// stream a run served wholly from the cache emits. The same
// digests hold at parallelism 1 and 2. An engine change that claims to
// leave every output byte alone runs this test unchanged; one that moves
// a byte on purpose regenerates the literals and says why.
var benchCampaignDigests = map[string][5]string{
	"plain": {
		"60de9f94bfc6c8e81f4e16f2c2c92086ff4f252aee3af146055b716da7e6f330",
		"8f8e14e164855c42457dd1dff8944513975d161ed14ec7832d77f530576361d3",
		"fa3213989583e817104d158e15a388d428dd0f5c73c97a78c66a31d943489616",
		"5dcdc07b5c7ab64536b0e6a83e92b670e548942cc72be0abc2537f712670af8d",
		"06e5d8e7b3c81cac9344cd0b4a64854342dc99c01b162e14b5c0f364e2b2c8bd",
	},
	"fault": {
		"14527ed7c0569235af826ba133e1a901566d67043fc3d025c47bbdac85d29d86",
		"e1fc2c0a0a5d97b9ce59a6b724a6be9ecc332a3541284c181f2a0dfed049cf13",
		"30625fed7d6aafd36d00135567c1692adce7acfe198df7b8572de75752170dc6",
		"9f37af35a3de92a51a72dd129192240fea6ef9a5513495ca5f4864261cc572d5",
		"d1b1679f07350a9606549f2112e8484f7bf761c1c38a3900d85094786765903a",
	},
	"churn": {
		"14587be8a3800a2948ac25fbac4333628a17ab68e49f298ca8360777f2fdfcf7",
		"31fb25a01189fea6677fa328f1ecf0279e7ced8a0f58e23719fc3ab3680ad367",
		"0105f648d16238e29bd39d5a54c0166f8581c836b8e956cfdd73f80faf685ca9",
		"a9847fcb23569835376c2f837f0f0b8c058f0cce148b75474f326a795255230a",
		"ab0f6f4da91ceef405d4eba82c824961a34f1375235ccf8fa615585615b1f23d",
	},
}

// renderPin pairs RenderFormat with the SHA-256 of every digest above
// (campaigns in name order, artifacts in pinned order). Rendered entries
// are keyed by RenderFormat, so a change that moves a rendered byte and
// re-pins the digests without bumping it would let old caches serve old
// bytes; TestRenderFormatPinned fails until both halves are updated.
var renderPin = [2]string{
	"campaign-render-v2",
	"e613e61ea0c3fbb4eb44a8958333b663df696486f9a2a8d5ae87bdd4ffc5a829",
}

var (
	trialsLine = regexp.MustCompile(`(?m)^trials .*$`)
	seedLine   = regexp.MustCompile(`(?m)^seed .*$`)
)

// TestBenchCampaignDigests runs each benchmark campaign at two trials on
// one and on two workers and compares the digests of its three
// artifacts with the pinned ones.
func TestBenchCampaignDigests(t *testing.T) {
	t.Parallel()
	for name, want := range benchCampaignDigests {
		src, err := os.ReadFile(filepath.Join("..", "..", "bench", "campaigns", name+".campaign"))
		if err != nil {
			t.Fatal(err)
		}
		src = trialsLine.ReplaceAll(src, []byte("trials 2"))
		src = seedLine.ReplaceAll(src, []byte("seed 2009"))
		for _, parallelism := range []int{1, 2} {
			plan, err := Compile(mustParse(t, string(src)), parallelism)
			if err != nil {
				t.Fatal(err)
			}
			replay := obs.NewReplaySink()
			out, err := Execute(context.Background(), plan, RunOptions{Observer: replay})
			if err != nil {
				t.Fatal(err)
			}
			var jsonl, events, csv, stream bytes.Buffer
			if err := out.WriteJSONL(&jsonl); err != nil {
				t.Fatal(err)
			}
			if err := replay.WriteCanonical(&events); err != nil {
				t.Fatal(err)
			}
			if err := out.Table().CSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := out.WriteStream(&stream); err != nil {
				t.Fatal(err)
			}
			artifacts := [5][]byte{jsonl.Bytes(), events.Bytes(), []byte(out.Table().String()), csv.Bytes(), stream.Bytes()}
			for i, label := range []string{"JSONL", "event log", "table", "CSV", "stream"} {
				sum := sha256.Sum256(artifacts[i])
				if got := hex.EncodeToString(sum[:]); got != want[i] {
					t.Errorf("%s at parallelism %d: %s digest %s, want %s", name, parallelism, label, got, want[i])
				}
			}
		}
	}
}

// TestRenderFormatPinned: the pinned digests and RenderFormat move
// together (see renderPin).
func TestRenderFormatPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range slices.Sorted(maps.Keys(benchCampaignDigests)) {
		for _, digest := range benchCampaignDigests[name] {
			h.Write([]byte(digest))
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if RenderFormat != renderPin[0] || sum != renderPin[1] {
		t.Fatalf("RenderFormat %q over digests summing to %s, pinned %q over %s: "+
			"a change that moves rendered bytes bumps RenderFormat and re-pins both",
			RenderFormat, sum, renderPin[0], renderPin[1])
	}
}
