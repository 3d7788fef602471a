package campaign

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// sampleRendered is a small entry with every section non-empty.
var sampleRendered = Rendered{
	Name: "sample", Cells: 5, Owned: 3,
	Sections: [NumSections][]byte{
		[]byte(`{"seq":0,"ev":"campaign-start","key":"sample","cells":3}` + "\n"),
		[]byte(`{"cell":0,"key":"k","trial":0,"silent":true}` + "\n"),
		[]byte("campaign sample: 5 cells × 1 trials (seed 1)\ncell  key\n----  ---\n"),
		[]byte("cell,key\n0,k\n"),
		[]byte(`{"ev":"campaign-start","cell":-1,"key":"sample","trial":-1,"count":3}` + "\n"),
	},
}

const sampleKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// encodeRendered is the entry writeRendered streams for r, into memory.
func encodeRendered(key string, r *Rendered) []byte {
	var buf bytes.Buffer
	if _, entryErr, err := writeRendered(&buf, key, r.Name, r.Cells, r.Owned, [NumSections]io.Writer{}, r.WriteSection); entryErr != nil || err != nil {
		panic("encodeRendered into memory failed")
	}
	return buf.Bytes()
}

// TestRenderedRoundTrip: a stored entry loads to the sections its
// destinations received, under its own key, and leaves no temp file;
// the index StoreRendered returns is the one IndexRendered reads back,
// and locates every section.
func TestRenderedRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	be := NewDirBackend(dir)
	var dst [NumSections]bytes.Buffer
	outs := [NumSections]io.Writer{&dst[SectionEvents], nil, &dst[SectionTable], nil}
	stored, err := StoreRendered(be, sampleKey, sampleRendered.Name, sampleRendered.Cells, sampleRendered.Owned,
		outs, sampleRendered.WriteSection)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{SectionEvents, SectionTable} {
		if !bytes.Equal(dst[s].Bytes(), sampleRendered.Sections[s]) {
			t.Errorf("destination of section %d got %q", s, dst[s].Bytes())
		}
	}
	got, err := LoadRendered(be, sampleKey)
	if err != nil || got == nil {
		t.Fatalf("LoadRendered = (%v, %v)", got, err)
	}
	if !sameRendered(got, &sampleRendered) {
		t.Errorf("entry loads as %+v, want %+v", got, sampleRendered)
	}
	if idx, err := IndexRendered(be, sampleKey); err != nil || idx == nil || *idx != *stored {
		t.Fatalf("IndexRendered = (%+v, %v), want the stored index %+v", idx, err, stored)
	}
	data, _ := os.ReadFile(be.renderedPath(sampleKey))
	if int64(len(data)) != stored.Stamp.Size {
		t.Fatalf("index stamps %d bytes, the entry holds %d", stored.Stamp.Size, len(data))
	}
	for s := range NumSections {
		if part := data[stored.Off[s] : stored.Off[s]+stored.Len[s]]; !bytes.Equal(part, sampleRendered.Sections[s]) {
			t.Errorf("the index locates section %d at %q", s, part)
		}
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 || files[0].Name() != sampleKey+renderedSuffix {
		t.Fatalf("directory holds %v, want the one entry", files)
	}
	if absent, err := LoadRendered(be, sampleKey[1:]+"0"); absent != nil || err != nil {
		t.Fatalf("absent entry loads as (%v, %v)", absent, err)
	}
	if absent, err := IndexRendered(be, sampleKey[1:]+"0"); absent != nil || err != nil {
		t.Fatalf("absent entry indexes as (%v, %v)", absent, err)
	}
	if n, _, err := CacheEntries(dir); err != nil || n != 0 {
		t.Fatalf("CacheEntries counts %d (err %v): rendered entries are not cell entries", n, err)
	}
	if n, size, err := be.RenderedStats(); err != nil || n != 1 || size != stored.Stamp.Size {
		t.Fatalf("RenderedStats = (%d, %d, %v), want the one entry of %d bytes", n, size, err, stored.Stamp.Size)
	}
}

// TestRenderedKeyInputs: the key moves with the shard and every source
// byte, and the unsharded run has one key however it was spelled.
func TestRenderedKeyInputs(t *testing.T) {
	t.Parallel()
	src := []byte("campaign t\ngraph path 4\nprotocol coloring\n")
	whole := RenderedKey(src, 0, 0)
	if RenderedKey(src, 0, 1) != whole {
		t.Error("0/1 and no shard key differently")
	}
	seen := map[string]string{whole: "whole"}
	for name, key := range map[string]string{
		"shard 0/2":     RenderedKey(src, 0, 2),
		"shard 1/2":     RenderedKey(src, 1, 2),
		"shard 1/3":     RenderedKey(src, 1, 3),
		"trailing byte": RenderedKey(append(bytes.Clone(src), '\n'), 0, 0),
		"one byte off":  RenderedKey(bytes.Replace(src, []byte("4"), []byte("5"), 1), 0, 0),
	} {
		if len(key) != renderedKeySize {
			t.Fatalf("%s: key %q is not %d hex digits", name, key, renderedKeySize)
		}
		if other, dup := seen[key]; dup {
			t.Errorf("%s keys like %s", name, other)
		}
		seen[key] = name
	}
}

// renderedCorruptions maps a name to a damaged copy of a valid entry.
// Each must decode to an error, never to sections and never to a panic.
var renderedCorruptions = map[string]func(valid []byte) []byte{
	"empty":        func([]byte) []byte { return nil },
	"truncated":    func(valid []byte) []byte { return valid[:len(valid)/2] },
	"trailer-only": func(valid []byte) []byte { return valid[len(valid)-renderedTrailer:] },
	"bit-flipped":  func(valid []byte) []byte { c := bytes.Clone(valid); c[len(c)/2] ^= 0x10; return c },
	"bit-flipped-header": func(valid []byte) []byte {
		c := bytes.Clone(valid)
		c[len(renderedMagic)+renderedKeySize] ^= 0x01
		return c
	},
	"bit-flipped-checksum": func(valid []byte) []byte { c := bytes.Clone(valid); c[len(c)-1] ^= 0x80; return c },
	"wrong-magic": func(valid []byte) []byte {
		c := bytes.Clone(valid)
		copy(c, entryMagic)
		return sealed(c[:len(c)-checksumSize])
	},
	"overlong-section": func(valid []byte) []byte {
		// A correctly checksummed entry whose first section claims 2^40
		// bytes: only the length check stands between it and a slice
		// past the end.
		c := bytes.Clone(valid[:len(valid)-checksumSize])
		binary.BigEndian.PutUint64(c[len(c)-NumSections*8:], 1<<40)
		return sealed(c)
	},
	"short-sections": func(valid []byte) []byte {
		// The lengths sum to one byte less than the sections hold.
		c := bytes.Clone(valid[:len(valid)-checksumSize])
		at := len(c) - 8
		binary.BigEndian.PutUint64(c[at:], binary.BigEndian.Uint64(c[at:])-1)
		return sealed(c)
	},
	"overlong-name": func([]byte) []byte {
		// A name that claims 2^40 bytes, then empty sections.
		c := append([]byte(renderedMagic), sampleKey...)
		c = binary.AppendUvarint(c, 1<<40)
		return sealed(append(c, make([]byte, NumSections*8)...))
	},
	"owned-beyond-cells": func([]byte) []byte {
		return encodeRendered(sampleKey, &Rendered{Name: "x", Cells: 2, Owned: 3})
	},
	"cells-beyond-limit": func([]byte) []byte {
		return encodeRendered(sampleKey, &Rendered{Name: "x", Cells: maxCells + 1})
	},
}

// TestDecodeRenderedRejects: every damaged shape is an error, including
// the ones a matching checksum lets through to the length checks.
func TestDecodeRenderedRejects(t *testing.T) {
	t.Parallel()
	valid := encodeRendered(sampleKey, &sampleRendered)
	if _, _, err := decodeRendered(valid); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	for name, damage := range renderedCorruptions {
		if key, r, err := decodeRendered(damage(valid)); err == nil || key != nil || r != nil {
			t.Errorf("%s: decoded to (%q, %+v, %v)", name, key, r, err)
		}
	}
}

// TestLoadRenderedChecksKey: an entry filed under another key's name, or
// damaged on disk, is an error the caller falls back on.
func TestLoadRenderedChecksKey(t *testing.T) {
	t.Parallel()
	be := NewDirBackend(t.TempDir())
	other := "f" + sampleKey[1:]
	if err := os.WriteFile(be.renderedPath(other), encodeRendered(sampleKey, &sampleRendered), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := LoadRendered(be, other); r != nil || err == nil {
		t.Fatalf("misfiled entry loads as (%v, %v)", r, err)
	}
	if idx, err := IndexRendered(be, other); idx != nil || err == nil {
		t.Fatalf("misfiled entry indexes as (%v, %v)", idx, err)
	}
	for name, damage := range renderedCorruptions {
		if err := os.WriteFile(be.renderedPath(sampleKey), damage(encodeRendered(sampleKey, &sampleRendered)), 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := LoadRendered(be, sampleKey); r != nil || err == nil {
			t.Fatalf("%s: damaged entry loads as (%v, %v)", name, r, err)
		}
		if idx, err := IndexRendered(be, sampleKey); idx != nil || err == nil {
			t.Fatalf("%s: damaged entry indexes as (%v, %v)", name, idx, err)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{}

var errFailingWriter = errors.New("write refused")

func (failingWriter) Write([]byte) (int, error) { return 0, errFailingWriter }

// TestStoreRenderedFailures: a destination that fails stops the pass and
// leaves no entry; an entry that fails lets every destination finish.
func TestStoreRenderedFailures(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	outs := [NumSections]io.Writer{nil, failingWriter{}}
	_, err := StoreRendered(NewDirBackend(dir), sampleKey, "x", 1, 1, outs, sampleRendered.WriteSection)
	if !errors.Is(err, errFailingWriter) {
		t.Fatalf("failing destination returned %v", err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("failed store left %v", files)
	}

	var dst [NumSections]bytes.Buffer
	_, entryErr, err := writeRendered(failingWriter{}, sampleKey, "x", 1, 1,
		[NumSections]io.Writer{&dst[0], &dst[1], &dst[2], &dst[3], &dst[4]}, sampleRendered.WriteSection)
	if !errors.Is(entryErr, errFailingWriter) || err != nil {
		t.Fatalf("failing entry returned (%v, %v)", entryErr, err)
	}
	for s := range dst {
		if !bytes.Equal(dst[s].Bytes(), sampleRendered.Sections[s]) {
			t.Errorf("section %d stopped at %d bytes when the entry failed", s, dst[s].Len())
		}
	}
}

// FuzzDecodeRendered: arbitrary bytes either fail to decode or decode
// to an entry that is a fixed point of encode∘decode; nothing panics and
// no section reaches past the input. Each input is tried as it is and
// once more under a matching checksum, which is what lets a mutation
// reach the length checks behind it.
func FuzzDecodeRendered(f *testing.F) {
	valid := encodeRendered(sampleKey, &sampleRendered)
	f.Add(valid)
	f.Add(encodeRendered(sampleKey, &Rendered{}))
	for _, damage := range renderedCorruptions {
		f.Add(damage(valid))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeRendered(t, data)
		if len(data) >= checksumSize {
			checkDecodeRendered(t, sealed(bytes.Clone(data[:len(data)-checksumSize])))
		}
	})
}

func checkDecodeRendered(t *testing.T, data []byte) {
	key, r, err := decodeRendered(data)
	if err != nil {
		if key != nil || r != nil {
			t.Fatalf("error with results: (%q, %+v, %v)", key, r, err)
		}
		return
	}
	total := len(r.Name)
	for _, s := range r.Sections {
		total += len(s)
	}
	if total > len(data) {
		t.Fatalf("%d bytes of name and sections accepted from %d bytes", total, len(data))
	}
	again := encodeRendered(string(key), r)
	key2, r2, err := decodeRendered(again)
	if err != nil || !bytes.Equal(key2, key) || !sameRendered(r2, r) {
		t.Fatalf("re-encoded entry decodes to (%q, %+v, %v), want (%q, %+v)", key2, r2, err, key, r)
	}
	if !bytes.Equal(encodeRendered(string(key2), r2), again) {
		t.Fatal("encode is not a fixed point after one round trip")
	}
}

func sameRendered(a, b *Rendered) bool {
	if a.Name != b.Name || a.Cells != b.Cells || a.Owned != b.Owned {
		return false
	}
	for s := range a.Sections {
		if !bytes.Equal(a.Sections[s], b.Sections[s]) {
			return false
		}
	}
	return true
}

// TestRenderedStoreReplaces: a second store of one key replaces the
// entry whole under a new stamp and leaves no temp file behind, in a
// directory and in memory alike; a removed entry is absent.
func TestRenderedStoreReplaces(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for _, be := range []Backend{NewDirBackend(dir), NewMemBackend()} {
		store := func(r *Rendered) *RenderedIndex {
			idx, err := StoreRendered(be, sampleKey, r.Name, r.Cells, r.Owned, [NumSections]io.Writer{}, r.WriteSection)
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}
		first := store(&Rendered{Name: "first", Cells: 1, Owned: 1})
		second := store(&sampleRendered)
		if first.Stamp == second.Stamp {
			t.Fatalf("%T: two stores of one key share the stamp %+v", be, first.Stamp)
		}
		got, err := LoadRendered(be, sampleKey)
		if err != nil || got == nil || !sameRendered(got, &sampleRendered) {
			t.Fatalf("%T: second store loads as (%+v, %v)", be, got, err)
		}
		f, err := be.OpenRendered(sampleKey)
		if err != nil || f == nil || f.Stamp() != second.Stamp {
			t.Fatalf("%T: the entry opens as (%v, %v), want the second store's stamp", be, f, err)
		}
		part, err := f.Section(second.Off[SectionTable], second.Len[SectionTable])
		if err != nil {
			t.Fatal(err)
		}
		if data, err := io.ReadAll(part); err != nil || !bytes.Equal(data, sampleRendered.Sections[SectionTable]) {
			t.Fatalf("%T: the table section reads %q (%v)", be, data, err)
		}
		f.Close()
		if err := be.RemoveRendered(sampleKey); err != nil {
			t.Fatal(err)
		}
		if f, err := be.OpenRendered(sampleKey); f != nil || err != nil {
			t.Fatalf("%T: a removed entry opens as (%v, %v)", be, f, err)
		}
		if n, _, err := be.RenderedStats(); n != 0 || err != nil {
			t.Fatalf("%T: %d rendered entries after the removal (%v)", be, n, err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(files) != 0 {
		t.Fatalf("stores left temp files %v", files)
	}
}
