package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Backend is the pluggable storage layer of the content-addressed
// result cache. Entries are opaque byte payloads addressed by their
// cell-fingerprint hash; the campaign layer owns encoding, fingerprint
// verification and staleness rules, so a backend only moves bytes.
//
// Implementations must be safe for concurrent use: the campaign service
// runs many workers — and many concurrent runs — against one shared
// backend, and separate processes may share an on-disk backend. Store
// must be atomic (a reader never observes a torn entry); concurrent
// stores of the same hash may race, which is harmless because an
// entry's bytes are a deterministic function of its hash.
type Backend interface {
	// Load returns the entry's bytes, or (nil, nil) when the entry does
	// not exist. A non-nil error means the entry exists but could not be
	// read — callers degrade it to a miss and surface a diagnostic.
	// The returned bytes may be shared with the backend and with other
	// callers (MemBackend returns the slice it holds): callers only read
	// them, and Store replaces an entry.
	Load(hash string) ([]byte, error)
	// Store persists the entry atomically.
	Store(hash string, data []byte) error
	// Stats reports the entry count and the total payload bytes held.
	Stats() (entries int, bytes int64, err error)

	// Rendered entries (see StoreRendered) are a second kind of entry,
	// addressed by RenderedKey and streamed in and out rather than moved
	// as one slice, so that neither end holds a copy of one.

	// WriteRendered stores the rendered entry that write writes under
	// key, atomically: it replaces any entry under key once write returns
	// nil, and is dropped when write returns an error. It returns the
	// stored entry's stamp.
	WriteRendered(key string, write func(w io.Writer) error) (Stamp, error)
	// OpenRendered opens the rendered entry under key for reading, or
	// returns (nil, nil) when there is none. The caller closes it.
	OpenRendered(key string) (EntryReader, error)
	// RemoveRendered deletes the rendered entry under key, if any.
	RemoveRendered(key string) error
	// RenderedStats reports the rendered entry count and their bytes,
	// apart from Stats' cell entries.
	RenderedStats() (entries int, bytes int64, err error)
}

// Stamp tells apart the versions one rendered entry's key has held: the
// entry's size and, for a file, its modification time; a MemBackend
// numbers its stores instead. A reader that indexed an entry compares the
// stamp of each later open with the one it indexed, and reads the
// sections only while they agree.
type Stamp struct {
	Size    int64
	ModTime int64 // UnixNano
	Gen     uint64
}

// EntryReader is an open rendered entry.
type EntryReader interface {
	io.ReaderAt
	io.Closer
	// Stamp is the version of the entry that was opened.
	Stamp() Stamp
	// Section returns a reader of the n bytes at off. Sections share one
	// read position: read them one at a time. A file's section is an
	// *io.LimitedReader of its *os.File, which io.Copy to a TCP
	// connection turns into a sendfile(2) of that range.
	Section(off, n int64) (io.Reader, error)
}

// DirBackend is the local-directory backend: one file per entry,
// written temp-then-rename so crashed or concurrent writers never leave
// a torn entry for others to read. It is the storage the `-cache` CLI
// flag and the daemon's `-cache` flag select.
type DirBackend struct{ Dir string }

// NewDirBackend returns a backend rooted at dir. The directory is
// created lazily on the first Store; use Probe to fail fast instead.
func NewDirBackend(dir string) *DirBackend { return &DirBackend{Dir: dir} }

// entrySuffix names the files that hold v4 entries. Files of earlier
// formats ("<hash>.json") keep their own suffix, so they are never
// opened, never counted by Stats, and safe to delete.
const entrySuffix = ".ssc4"

func (b *DirBackend) path(hash string) string { return filepath.Join(b.Dir, hash+entrySuffix) }

// Probe verifies the directory is usable for writes — creating it if
// missing — by writing and removing a temp file. CLIs call it up front
// so an unwritable cache directory fails the run immediately instead of
// per-cell, after trials have already burned.
func (b *DirBackend) Probe() error {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return fmt.Errorf("campaign: cache dir %s: %w", b.Dir, err)
	}
	tmp, err := os.CreateTemp(b.Dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("campaign: cache dir %s not writable: %w", b.Dir, err)
	}
	tmp.Close()
	return os.Remove(tmp.Name())
}

// loadBufSize is the buffer Load reads into first. An entry takes about
// 250 bytes plus 30 a trial, so cells of up to two dozen trials fit it.
const loadBufSize = 1 << 10

// Load implements Backend. A missing entry is (nil, nil); any other
// read failure (permissions, I/O) is an error the caller reports. An
// entry that leaves room in the buffer costs one read: a regular file
// stops short only at its end, and the entry's checksum is there for the
// file that did not.
func (b *DirBackend) Load(hash string) ([]byte, error) {
	f, err := os.Open(b.path(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, 0, loadBufSize)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF || err == nil && len(data) < cap(data) {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		data = append(data, 0)[:len(data)] // full: grow and read on
	}
}

// Store implements Backend with a temp-file-then-rename write.
func (b *DirBackend) Store(hash string, data []byte) error {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return fmt.Errorf("campaign: cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(b.Dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), b.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	return nil
}

// Stats implements Backend: the number of entry files and their total
// size. A missing directory is an empty cache, not an error.
func (b *DirBackend) Stats() (int, int64, error) { return b.count(entrySuffix) }

// RenderedStats implements Backend: the number of rendered entry files
// and their total size.
func (b *DirBackend) RenderedStats() (int, int64, error) { return b.count(renderedSuffix) }

// count reports the files of the directory named with suffix and their
// total size.
func (b *DirBackend) count(suffix string) (int, int64, error) {
	entries, err := os.ReadDir(b.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	n, total := 0, int64(0)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		n++
		total += info.Size()
	}
	return n, total, nil
}

func (b *DirBackend) renderedPath(key string) string {
	return filepath.Join(b.Dir, key+renderedSuffix)
}

// WriteRendered implements Backend with a temp-file-then-rename write,
// unbuffered: every renderer buffers its own output.
func (b *DirBackend) WriteRendered(key string, write func(io.Writer) error) (Stamp, error) {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return Stamp{}, err
	}
	tmp, err := os.CreateTemp(b.Dir, ".tmp-*")
	if err != nil {
		return Stamp{}, err
	}
	err = write(tmp)
	var info fs.FileInfo
	if err == nil {
		info, err = tmp.Stat()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), b.renderedPath(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return Stamp{}, err
	}
	return fileStamp(info), nil
}

// OpenRendered implements Backend: the entry's file, and its stamp from
// one fstat.
func (b *DirBackend) OpenRendered(key string) (EntryReader, error) {
	f, err := os.Open(b.renderedPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileEntry{f, fileStamp(info)}, nil
}

// RemoveRendered implements Backend.
func (b *DirBackend) RemoveRendered(key string) error {
	if err := os.Remove(b.renderedPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func fileStamp(info fs.FileInfo) Stamp {
	return Stamp{Size: info.Size(), ModTime: info.ModTime().UnixNano()}
}

// fileEntry is a DirBackend's open rendered entry.
type fileEntry struct {
	*os.File
	stamp Stamp
}

func (f *fileEntry) Stamp() Stamp { return f.stamp }

func (f *fileEntry) Section(off, n int64) (io.Reader, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return &io.LimitedReader{R: f.File, N: n}, nil
}

// MemBackend is the in-process backend: mutex-guarded maps. It backs
// tests and the daemon's default (no `-cache` flag) configuration,
// where dedup across runs matters but nothing must survive a restart.
type MemBackend struct {
	mu       sync.RWMutex
	m        map[string][]byte
	rendered map[string]memEntry
	gen      uint64 // rendered stores so far
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{m: make(map[string][]byte), rendered: make(map[string]memEntry)}
}

// Load implements Backend. The returned slice is the stored one.
func (b *MemBackend) Load(hash string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.m[hash], nil
}

// Store implements Backend. The payload is copied: entries never alias
// a caller's buffer.
func (b *MemBackend) Store(hash string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[hash] = cp
	return nil
}

// Stats implements Backend.
func (b *MemBackend) Stats() (int, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total := int64(0)
	for _, data := range b.m {
		total += int64(len(data))
	}
	return len(b.m), total, nil
}

// WriteRendered implements Backend: the entry is written to memory and
// kept as an exact-size slice.
func (b *MemBackend) WriteRendered(key string, write func(io.Writer) error) (Stamp, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return Stamp{}, err
	}
	data := bytes.Clone(buf.Bytes())
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	e := memEntry{data: data, stamp: Stamp{Size: int64(len(data)), Gen: b.gen}}
	b.rendered[key] = e
	return e.stamp, nil
}

// OpenRendered implements Backend. The entry reads the stored slice.
func (b *MemBackend) OpenRendered(key string) (EntryReader, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.rendered[key]
	if !ok {
		return nil, nil
	}
	return &memReader{bytes.NewReader(e.data), e}, nil
}

// RemoveRendered implements Backend.
func (b *MemBackend) RemoveRendered(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.rendered, key)
	return nil
}

// RenderedStats implements Backend.
func (b *MemBackend) RenderedStats() (int, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total := int64(0)
	for _, e := range b.rendered {
		total += e.stamp.Size
	}
	return len(b.rendered), total, nil
}

// memEntry is one rendered entry a MemBackend holds.
type memEntry struct {
	data  []byte
	stamp Stamp
}

// memReader is a MemBackend's open rendered entry.
type memReader struct {
	*bytes.Reader
	e memEntry
}

func (m *memReader) Stamp() Stamp { return m.e.stamp }
func (m *memReader) Close() error { return nil }

func (m *memReader) Section(off, n int64) (io.Reader, error) {
	if off < 0 || n < 0 || off+n > int64(len(m.e.data)) {
		return nil, errRendered
	}
	return bytes.NewReader(m.e.data[off : off+n]), nil
}
