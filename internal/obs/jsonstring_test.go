package obs

import (
	"encoding/json"
	"testing"

	"repro/internal/rng"
)

// checkJSONString fails unless AppendJSONString agrees with json.Marshal
// on s and leaves the bytes before it alone.
func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendJSONString([]byte("x"), s)
	if string(got) != "x"+string(want) {
		t.Fatalf("AppendJSONString(%q)\n got %s\nwant %s", s, got[1:], want)
	}
}

// jsonStringSeeds holds one string per escaping rule, and the places
// where two rules meet.
var jsonStringSeeds = []string{
	"", "plain ascii", `quote " backslash \ slash /`,
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
	"line\xe2\x80\xa8sep\xe2\x80\xa9end", "\xe2\x80\xa7\xe2\x80\xaa", "\xc3\xa9\xe6\xbc\xa2\xf0\x9f\x99\x82",
	"\xff", "a\xc3", "\xe2\x80", "\xe2\x80\xa8", "\xed\xa0\x80", "\xf4\x90\x80\x80",
	"tail\xe2", "{graph}|{protocol}|adv=<none>&k=0",
}

// FuzzAppendJSONString: key templates carry user text into every JSON
// artifact, so the append helper must match json.Marshal byte for byte
// on any string, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	f.Fuzz(checkJSONString)
}

// TestAppendJSONStringRandomCorpus runs the same comparison over random
// byte strings drawn from an alphabet dense in the special cases: every
// escaped ASCII byte, UTF-8 lead and continuation bytes that assemble
// into U+2028/U+2029 and into truncated or overlong sequences.
func TestAppendJSONStringRandomCorpus(t *testing.T) {
	t.Parallel()
	alphabet := []byte("ab\"\\/<>&\x00\x08\x0c\n\r\t\x1f\x7f\xe2\x80\xa8\xa9\xc3\xa9\xf0\x9f\x99\x82\xed\xa0\xff\xc0")
	r := rng.New(2009)
	for i := 0; i < 20000; i++ {
		b := make([]byte, r.Intn(12))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		checkJSONString(t, string(b))
	}
}
