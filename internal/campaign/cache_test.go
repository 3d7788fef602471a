package campaign

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestRecordFieldsMatchesTrialRecord: the codec writes TrialRecord field
// by field, so a field added to the struct must be added to
// encodeEntry/decodeEntry (and EngineVersion bumped) too.
func TestRecordFieldsMatchesTrialRecord(t *testing.T) {
	t.Parallel()
	if n := reflect.TypeOf(TrialRecord{}).NumField(); n != recordFields {
		t.Fatalf("TrialRecord has %d fields, the entry codec writes %d", n, recordFields)
	}
}

// randomRecord draws a record whose fields mix small values, the
// MaxBallRadius sentinel and the integer extremes.
func randomRecord(r *rng.Rand) TrialRecord {
	i64 := func() int64 {
		switch r.Intn(6) {
		case 0:
			return math.MaxInt64
		case 1:
			return math.MinInt64
		case 2:
			return -1
		case 3:
			return int64(r.Uint64())
		}
		return int64(r.Intn(100000))
	}
	i := func() int { return int(i64()) }
	return TrialRecord{
		Silent: r.Intn(2) == 0, Legitimate: r.Intn(2) == 0,
		Steps: i(), Rounds: i(), Moves: i64(), Selections: i64(),
		DisabledSelections: i64(), CommWrites: i64(), KEfficiency: i(),
		CommBits: i(), TotalBits: i64(), TotalReads: i64(),
		Injections: i(), Recovered: i(), MaxRecoveryRounds: i(),
		MaxRadius: i(), MaxBallRadius: i(), ChurnEvents: i(),
	}
}

// TestEntryRoundTrip: decode(encode(fp, recs)) == (fp, recs) for random
// fingerprints and records, the empty entry included.
func TestEntryRoundTrip(t *testing.T) {
	t.Parallel()
	r := rng.New(2009)
	for iter := 0; iter < 2000; iter++ {
		fp := make([]byte, r.Intn(300))
		for i := range fp {
			fp[i] = byte(r.Intn(256))
		}
		recs := make([]TrialRecord, r.Intn(12))
		for i := range recs {
			recs[i] = randomRecord(r)
		}
		if len(recs) > 0 {
			recs[0].MaxBallRadius = -1 // what every plain trial stores
		}
		gotFP, gotRecs, err := decodeEntry(encodeEntry(string(fp), recs))
		if err != nil {
			t.Fatalf("iter %d: decode of a fresh entry: %v", iter, err)
		}
		if !bytes.Equal(gotFP, fp) || !slices.Equal(gotRecs, recs) {
			t.Fatalf("iter %d: round trip changed the entry:\n got %q %+v\nwant %q %+v", iter, gotFP, gotRecs, fp, recs)
		}
	}
}

// sealed appends the checksum trailer to a hand-built entry body, so a
// test can get a malformed body past the checksum.
func sealed(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// entryBody is a valid entry without its checksum trailer.
func entryBody(fingerprint string, records []TrialRecord) []byte {
	data := encodeEntry(fingerprint, records)
	return data[:len(data)-checksumSize]
}

// corruptions maps a name to a way of damaging a valid entry. Each
// result must decode to an error, never to records and never to a panic.
var corruptions = map[string]func(valid []byte) []byte{
	"truncated":   func(valid []byte) []byte { return valid[:len(valid)/2] },
	"bit-flipped": func(valid []byte) []byte { c := bytes.Clone(valid); c[len(c)/2] ^= 0x10; return c },
	"emptied":     func([]byte) []byte { return nil },
	"overlong": func(valid []byte) []byte {
		// Several of DirBackend.Load's first buffers long.
		return append(bytes.Clone(valid), make([]byte, 5*loadBufSize)...)
	},
	"oversized-count": func(valid []byte) []byte {
		// A body that promises 2^40 records and holds none, correctly
		// checksummed: only the count check stands between it and the
		// allocation.
		fp, _, _ := decodeEntry(valid)
		body := append([]byte(entryMagic), binary.AppendUvarint(nil, uint64(len(fp)))...)
		body = append(body, fp...)
		return sealed(binary.AppendUvarint(body, 1<<40))
	},
}

// TestDecodeEntryRejects: every malformed shape is an error, including
// the ones a matching checksum lets through to the field checks.
func TestDecodeEntryRejects(t *testing.T) {
	t.Parallel()
	recs := []TrialRecord{{Silent: true, Steps: 300, MaxBallRadius: -1}, {Moves: math.MaxInt64}}
	valid := encodeEntry("fp", recs)
	if _, got, err := decodeEntry(valid); err != nil || !slices.Equal(got, recs) {
		t.Fatalf("valid entry: (%+v, %v)", got, err)
	}
	body := entryBody("fp", recs)
	cases := map[string][]byte{
		"empty":                         nil,
		"magic only":                    []byte(entryMagic),
		"v3 json":                       []byte(`{"fingerprint":"fp","records":[]}`),
		"wrong magic":                   sealed(append([]byte("SSC3"), body[len(entryMagic):]...)),
		"trailing byte":                 sealed(append(bytes.Clone(body), 0)),
		"missing field":                 sealed(body[:len(body)-1]),
		"bool out of 0/1":               sealed(append(append([]byte(entryMagic), 0, 1, 4), make([]byte, recordFields-1)...)),
		"count, no records":             sealed(append([]byte(entryMagic), 0, 1)),
		"fingerprint longer than entry": sealed(append([]byte(entryMagic), 200, 1, 'x')),
		"unterminated varint":           sealed(append([]byte(entryMagic), 0x80)),
	}
	for name, damage := range corruptions {
		cases[name] = damage(valid)
	}
	for name, data := range cases {
		if fp, got, err := decodeEntry(data); err == nil {
			t.Errorf("%s: decoded to (%q, %+v)", name, fp, got)
		}
	}
}

// FuzzDecodeEntry: arbitrary bytes either fail to decode or decode to an
// entry that is a fixed point of encode∘decode; nothing panics and no
// accepted entry carries more records than its bytes can hold. Each
// input is tried as it is and once more as a body under a matching
// checksum: mutations almost never survive the checksum on their own, and
// the field checks behind it are what a hostile entry would aim at.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeEntry("", nil))
	f.Add(entryBody("fp", []TrialRecord{{Silent: true, Legitimate: true, Steps: 41, Rounds: 7, MaxBallRadius: -1}}))
	for _, damage := range corruptions {
		f.Add(damage(encodeEntry("fp", []TrialRecord{{Steps: 1}, {Steps: 2}})))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, sealed(bytes.Clone(data)))
	})
}

func checkDecode(t *testing.T, data []byte) {
	fp, recs, err := decodeEntry(data)
	if err != nil {
		if fp != nil || recs != nil {
			t.Fatalf("error with results: (%q, %+v, %v)", fp, recs, err)
		}
		return
	}
	if len(recs)*recordFields > len(data) {
		t.Fatalf("%d records accepted from %d bytes", len(recs), len(data))
	}
	again := encodeEntry(string(fp), recs)
	fp2, recs2, err := decodeEntry(again)
	if err != nil || !bytes.Equal(fp2, fp) || !slices.Equal(recs2, recs) {
		t.Fatalf("re-encoded entry decodes to (%q, %+v, %v), want (%q, %+v)", fp2, recs2, err, fp, recs)
	}
	if !bytes.Equal(encodeEntry(string(fp2), recs2), again) {
		t.Fatal("encode is not a fixed point after one round trip")
	}
}

// TestLeftoverV3EntriesAreIgnored: a directory full of "<hash>.json"
// files from the JSON era is an empty cache. The files are not opened
// (so no cache-corrupt diagnostic), not counted and not touched; the
// cells recompute into v4 entries beside them.
func TestLeftoverV3EntriesAreIgnored(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	clean, out := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})
	files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if len(files) != len(out.Results) {
		t.Fatalf("%d entries for %d cells", len(files), len(out.Results))
	}
	v3 := []byte(`{"fingerprint":"campaign-engine-v3\nseed=1","records":[{"silent":true}]}`)
	for _, f := range files {
		old := strings.TrimSuffix(f, entrySuffix) + ".json"
		if err := os.Rename(f, old); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(old, v3, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, size, err := CacheEntries(dir); err != nil || n != 0 || size != 0 {
		t.Fatalf("CacheEntries over v3 leftovers = (%d, %d, %v), want (0, 0, nil)", n, size, err)
	}
	var c corruptCollector
	again, out := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir), Observer: &c})
	if again != clean || out.CacheHits != 0 || out.CacheMisses != len(files) || len(c.events) != 0 {
		t.Fatalf("run over v3 leftovers: same bytes %v, %d hits, %d misses, %d cache-corrupt events",
			again == clean, out.CacheHits, out.CacheMisses, len(c.events))
	}
	if n, _, _ := CacheEntries(dir); n != len(files) {
		t.Fatalf("%d v4 entries after the run, want %d", n, len(files))
	}
	for _, f := range files {
		if got, err := os.ReadFile(strings.TrimSuffix(f, entrySuffix) + ".json"); err != nil || !bytes.Equal(got, v3) {
			t.Fatalf("leftover %s was touched (err %v)", filepath.Base(f), err)
		}
	}
}

// benchCampaign compiles one of the three benchmark campaigns.
func benchCampaign(tb testing.TB, name string) *Plan {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "bench", "campaigns", name+".campaign"))
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := Parse(string(src))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := Compile(spec, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestCellFingerprintPinned: the fingerprint is the cache's address space,
// so a byte of drift in it (a renamed line, a reordered one, a number
// formatted another way) silently orphans every entry users hold. The
// literals below are what campaign-engine-v5 has always written for a
// plain, a faulted and a churned cell; change them only together with
// EngineVersion.
func TestCellFingerprintPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		campaign    string
		cell        int
		fingerprint string
		hash        string
	}{
		{"plain", 37,
			"campaign-engine-v5\nseed=2009\ntrials=10\nstop=none\nmax-steps=1000000\nsuffix-rounds=0\n" +
				"graph=torus 400\nprotocol=mis\ndaemon=synchronous\nadversary=\nk=0\ninject=at-start\n" +
				"churn=\nchurn-k=0\nchurn-inject=at-start\nkey=torus-20x20|mis|synchronous|0",
			"b5fc196797b3c3b3e34ecc1d74e49996950c2b01dae31e5d5f36494333c39e87"},
		{"fault", 0,
			"campaign-engine-v5\nseed=2009\ntrials=8\nstop=none\nmax-steps=1000000\nsuffix-rounds=0\n" +
				"graph=grid 400\nprotocol=coloring\ndaemon=random-subset\nadversary=uniform\nk=1\ninject=on-silence:3\n" +
				"churn=\nchurn-k=0\nchurn-inject=at-start\nkey=grid-20x20|coloring|random-subset|adv=uniform|k=1|inject=on-silence:3",
			"f7be1e8b91bc9d34143c68e5a8cd83826f9a446c28cd270b5b306a4ca78a29da"},
		{"churn", 11,
			"campaign-engine-v5\nseed=2009\ntrials=20\nstop=none\nmax-steps=1000000\nsuffix-rounds=0\n" +
				"graph=torus 400\nprotocol=mis\ndaemon=random-subset\nadversary=uniform\nk=1\ninject=on-silence:2\n" +
				"churn=rewire\nchurn-k=4\nchurn-inject=on-silence:2\n" +
				"key=torus-20x20|mis|random-subset|adv=uniform|k=1|inject=on-silence:2|churn=rewire|ck=4|cinject=on-silence:2",
			"0e91caf19f1b6199a058daf859dc257d26c9616965cbe780ad475514993cc016"},
	} {
		plan := benchCampaign(t, c.campaign)
		got := plan.cellFingerprint(&plan.Cells[c.cell])
		if got != c.fingerprint {
			t.Errorf("%s cell %d: fingerprint\n%q\nwant\n%q", c.campaign, c.cell, got, c.fingerprint)
		}
		if hash := cellHash(got); hash != c.hash {
			t.Errorf("%s cell %d: hash %s, want %s", c.campaign, c.cell, hash, c.hash)
		}
	}
}
