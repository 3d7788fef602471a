package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"repro/internal/obs"
	"repro/internal/stats"
)

// RenderFormat stamps every rendered entry's key, as EngineVersion stamps
// every cell entry's. Bump it whenever a change to a renderer
// (Outcome.WriteJSONL, Outcome.Table, stats.Table's String and CSV, the
// canonical event log, Outcome.WriteStream) or to the entry's layout moves
// a byte for an unchanged source: entries rendered by the old code then
// miss instead of serving old bytes. TestRenderFormatPinned fails until it
// is bumped.
const RenderFormat = "campaign-render-v2"

// The sections of a rendered entry, in the order the entry stores them
// and the CLI writes them.
const (
	SectionEvents = iota // the canonical event log
	SectionJSONL         // the per-trial records
	SectionTable         // the aligned summary table
	SectionCSV           // the summary table as CSV
	// SectionStream is the stream a run served wholly from the cache
	// emits (Outcome.WriteStream): what sscampaignd streams a POST of the
	// source once the entry exists.
	SectionStream
	NumSections
)

// Rendered is one run's outputs as its rendered entry holds them: the
// bytes of every section, and what the CLI's status line reports.
type Rendered struct {
	Name     string
	Cells    int // the plan's cell count
	Owned    int // the cells the run's shard owns
	Sections [NumSections][]byte
}

// WriteSection writes section s's bytes to w, as a run renders it.
func (r *Rendered) WriteSection(s int, w io.Writer) error {
	_, err := w.Write(r.Sections[s])
	return err
}

// RenderedIndex is where the parts of one stored rendered entry lie,
// without their bytes: what a reader needs to copy a section out of the
// entry. Stamp is the version of the entry it describes.
type RenderedIndex struct {
	Name     string
	Cells    int
	Owned    int
	Stamp    Stamp // Stamp.Size is the entry's length
	Off, Len [NumSections]int64
}

// RenderedKey is the content address of a run's rendered outputs: the hex
// SHA-256 of the engine version, the render format, the shard and the
// source bytes as read. Nothing else reaches an output byte: parallelism
// and cache state do not, and the output flags pick sections of one
// entry. Shards <= 1 is the unsharded run, however it was spelled.
func RenderedKey(src []byte, shard, shards int) string {
	if shards < 1 {
		shard, shards = 0, 1
	}
	h := sha256.New()
	buf := make([]byte, 0, 128)
	buf = append(buf, EngineVersion...)
	buf = appendLine(buf, "render=", RenderFormat)
	buf = appendIntLine(buf, "shard=", shard)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(shards), 10)
	buf = append(buf, "\nsource=\n"...)
	h.Write(buf)
	h.Write(src)
	return hex.EncodeToString(h.Sum(nil))
}

// Render returns the renderer of out's rendered entry, the render
// argument of StoreRendered: the canonical log replay collected, the
// JSONL, the table, the CSV and the stream.
func (o *Outcome) Render(replay *obs.ReplaySink) func(section int, w io.Writer) error {
	var table *stats.Table
	tab := func() *stats.Table {
		if table == nil {
			table = o.Table()
		}
		return table
	}
	return func(s int, w io.Writer) error {
		switch s {
		case SectionEvents:
			return replay.WriteCanonical(w)
		case SectionJSONL:
			return o.WriteJSONL(w)
		case SectionTable:
			_, err := io.WriteString(w, tab().String())
			return err
		case SectionCSV:
			return tab().CSV(w)
		}
		return o.WriteStream(w)
	}
}

// Rendered entry format (v2), one file "<key>.ssr1" beside the cell
// entries of a DirBackend directory (a MemBackend holds the same bytes):
//
//	magic     4 bytes, "SSR2"
//	key       the 64 hex digits the entry is stored under
//	name      uvarint length, then the bytes
//	cells     uvarint
//	owned     uvarint
//	sections  the event log, the JSONL, the table, the CSV and the stream,
//	          back to back
//	lengths   5 × 8 bytes, big-endian: the sections' lengths
//	checksum  4 bytes, big-endian CRC-32 (IEEE) of everything before it
//
// The lengths trail the sections so a run can stream each section into
// the entry as it writes its outputs, holding no second copy of them.
// The file keeps the suffix of the first format, whose magic was "SSR1":
// a v1 file is named by a key that no v2 key equals, so it is never read.
const (
	renderedMagic   = "SSR2"
	renderedSuffix  = ".ssr1"
	renderedKeySize = 2 * sha256.Size
	renderedFixed   = len(renderedMagic) + renderedKeySize
	renderedTrailer = NumSections*8 + checksumSize
)

// errRendered is the one decode failure of a rendered entry: whatever is
// wrong with it, the caller runs the campaign and rewrites it.
var errRendered = errors.New("not a well-formed rendered entry")

// decodeRendered parses a rendered entry, however hostile, without
// panicking: every length is checked against the bytes that remain, and
// the sections alias data.
func decodeRendered(data []byte) (key []byte, r *Rendered, err error) {
	if len(data) < renderedFixed+renderedTrailer {
		return nil, nil, errRendered
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, nil, errRendered
	}
	key, idx, err := readIndex(bytes.NewReader(body), int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	r = &Rendered{Name: idx.Name, Cells: idx.Cells, Owned: idx.Owned}
	for s := range r.Sections {
		end := idx.Off[s] + idx.Len[s]
		r.Sections[s] = data[idx.Off[s]:end:end]
	}
	return key, r, nil
}

// readIndex parses the layout of a rendered entry of size bytes read
// through r, whose checksum the caller has checked (r need not hold the
// checksum itself): the magic, the key, the name and counts of its head,
// and the place of each section. Every length is checked against the
// bytes that remain before one is read.
func readIndex(r io.ReaderAt, size int64) (key []byte, idx *RenderedIndex, err error) {
	end := size - renderedTrailer // where the sections end
	if end < int64(renderedFixed) {
		return nil, nil, errRendered
	}
	// The head is the fixed part, the name's length, the name and the two
	// counts: read what holds the length, then what holds the rest.
	head := make([]byte, min(end, int64(renderedFixed+binary.MaxVarintLen64)))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, nil, err
	}
	if string(head[:len(renderedMagic)]) != renderedMagic {
		return nil, nil, errRendered
	}
	nameLen, n := binary.Uvarint(head[renderedFixed:])
	if n <= 0 || nameLen > uint64(end) {
		return nil, nil, errRendered
	}
	if want := min(end, int64(renderedFixed+n)+int64(nameLen)+2*binary.MaxVarintLen64); want > int64(len(head)) {
		head = make([]byte, want)
		if _, err := r.ReadAt(head, 0); err != nil {
			return nil, nil, err
		}
	}
	rd := entryReader{data: head[renderedFixed+n:]}
	if nameLen > uint64(len(rd.data)) {
		return nil, nil, errRendered
	}
	name := rd.data[:nameLen]
	rd.data = rd.data[nameLen:]
	cells, owned := rd.uvarint(), rd.uvarint()
	if rd.bad || cells > maxCells || owned > cells {
		return nil, nil, errRendered
	}
	var lengths [NumSections * 8]byte
	if _, err := r.ReadAt(lengths[:], end); err != nil {
		return nil, nil, err
	}
	idx = &RenderedIndex{Name: string(name), Cells: int(cells), Owned: int(owned), Stamp: Stamp{Size: size}}
	off := int64(len(head) - len(rd.data))
	for s := range NumSections {
		n := binary.BigEndian.Uint64(lengths[8*s:])
		if n > uint64(end-off) {
			return nil, nil, errRendered
		}
		idx.Off[s], idx.Len[s] = off, int64(n)
		off += int64(n)
	}
	if off != end {
		return nil, nil, errRendered
	}
	return head[len(renderedMagic):renderedFixed], idx, nil
}

// LoadRendered reads the rendered entry stored under key into memory:
// checksummed and checked against its key. It returns (nil, nil) when
// there is no entry, and an error when the entry is unreadable, damaged
// or filed under another key; either way the caller runs the campaign,
// which rewrites it.
func LoadRendered(be Backend, key string) (*Rendered, error) {
	f, err := be.OpenRendered(key)
	if f == nil || err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, f.Stamp().Size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	stored, r, err := decodeRendered(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: rendered entry %s corrupt: %w", key, err)
	}
	if string(stored) != key {
		return nil, fmt.Errorf("campaign: rendered entry %s holds key %s", key, stored)
	}
	return r, nil
}

// IndexRendered checks the rendered entry stored under key as
// LoadRendered does, reading it once through a small buffer, and returns
// its index: the heap never holds its sections. It returns (nil, nil)
// when there is no entry.
func IndexRendered(be Backend, key string) (*RenderedIndex, error) {
	f, err := be.OpenRendered(key)
	if f == nil || err != nil {
		return nil, err
	}
	defer f.Close()
	stamp := f.Stamp()
	if stamp.Size < int64(renderedFixed+renderedTrailer) {
		return nil, fmt.Errorf("campaign: rendered entry %s corrupt: %w", key, errRendered)
	}
	crc := crc32.NewIEEE()
	var sum [checksumSize]byte
	if _, err := io.Copy(crc, io.NewSectionReader(f, 0, stamp.Size-checksumSize)); err != nil {
		return nil, err
	}
	if _, err := f.ReadAt(sum[:], stamp.Size-checksumSize); err != nil {
		return nil, err
	}
	if crc.Sum32() != binary.BigEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("campaign: rendered entry %s corrupt: %w", key, errRendered)
	}
	stored, idx, err := readIndex(f, stamp.Size)
	if err != nil {
		return nil, fmt.Errorf("campaign: rendered entry %s corrupt: %w", key, err)
	}
	if string(stored) != key {
		return nil, fmt.Errorf("campaign: rendered entry %s holds key %s", key, stored)
	}
	idx.Stamp = stamp
	return idx, nil
}

// StoreRendered writes a run's outputs and its rendered entry in one
// pass: render is called once for each section, in section order, with a
// writer that feeds both the entry and the section's destination
// (dst[section]; nil writes the entry alone). The backend publishes the
// entry only once the trailer is in, so no reader sees a torn entry. An
// error rendering or writing a destination stops the run; an error
// writing the entry lets the destinations finish, drops the entry and is
// returned. It returns the stored entry's index.
func StoreRendered(be Backend, key, name string, cells, owned int, dst [NumSections]io.Writer,
	render func(section int, w io.Writer) error) (*RenderedIndex, error) {
	var idx *RenderedIndex
	var renderErr error
	stamp, err := be.WriteRendered(key, func(w io.Writer) error {
		var entryErr error
		idx, entryErr, renderErr = writeRendered(w, key, name, cells, owned, dst, render)
		if renderErr != nil {
			return renderErr
		}
		return entryErr
	})
	if renderErr != nil {
		return nil, renderErr
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: rendered entry: %w", err)
	}
	idx.Stamp = stamp
	return idx, nil
}

// writeRendered encodes a rendered entry to w while render fills the
// destinations, teeing each section into both, and returns its index
// (without a stamp). It returns the first error writing w, after which
// the entry is abandoned and the destinations are still written, and
// apart from it the first error rendering or writing a destination, which
// stops the pass.
func writeRendered(w io.Writer, key, name string, cells, owned int, dst [NumSections]io.Writer,
	render func(section int, w io.Writer) error) (idx *RenderedIndex, entryErr, err error) {
	e := &entryWriter{w: w}
	head := make([]byte, 0, len(renderedMagic)+len(key)+len(name)+3*binary.MaxVarintLen64)
	head = append(head, renderedMagic...)
	head = append(head, key...)
	head = binary.AppendUvarint(head, uint64(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(cells))
	head = binary.AppendUvarint(head, uint64(owned))
	e.write(head)
	idx = &RenderedIndex{Name: name, Cells: cells, Owned: owned}
	var lengths [NumSections * 8]byte
	for s := range NumSections {
		idx.Off[s] = e.n
		if err := render(s, sectionWriter{e, dst[s]}); err != nil {
			return nil, e.err, err
		}
		idx.Len[s] = e.n - idx.Off[s]
		binary.BigEndian.PutUint64(lengths[8*s:], uint64(idx.Len[s]))
	}
	e.write(lengths[:])
	e.write(binary.BigEndian.AppendUint32(nil, e.crc))
	return idx, e.err, nil
}

// entryWriter appends to a rendered entry being written, keeping its
// length and checksum; after the first write error it writes nothing.
type entryWriter struct {
	w   io.Writer
	n   int64
	crc uint32
	err error
}

func (e *entryWriter) write(p []byte) {
	if e.err != nil {
		return
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, p)
	e.n += int64(len(p))
	_, e.err = e.w.Write(p)
}

// sectionWriter tees one section into the entry and its destination.
type sectionWriter struct {
	e   *entryWriter
	dst io.Writer
}

func (s sectionWriter) Write(p []byte) (int, error) {
	if s.dst != nil {
		if n, err := s.dst.Write(p); err != nil {
			return n, err
		}
	}
	s.e.write(p)
	return len(p), nil
}
