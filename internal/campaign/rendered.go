package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// RenderFormat stamps every rendered entry's key, as EngineVersion stamps
// every cell entry's. Bump it whenever a change to a renderer
// (Outcome.WriteJSONL, Outcome.Table, stats.Table's String and CSV, the
// canonical event log) moves an output byte for an unchanged source:
// entries rendered by the old code then miss instead of serving old
// bytes. TestRenderFormatPinned fails until it is bumped.
const RenderFormat = "campaign-render-v1"

// The sections of a rendered entry, in the order the entry stores them
// and the CLI writes them.
const (
	SectionEvents = iota // the canonical event log
	SectionJSONL         // the per-trial records
	SectionTable         // the aligned summary table
	SectionCSV           // the summary table as CSV
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

// Rendered entry format (v1), one file "<key>.ssr1" beside the cell
// entries of a DirBackend directory:
//
//	magic     4 bytes, "SSR1"
//	key       the 64 hex digits the file is named by
//	name      uvarint length, then the bytes
//	cells     uvarint
//	owned     uvarint
//	sections  the event log, the JSONL, the table and the CSV, back to back
//	lengths   4 × 8 bytes, big-endian: the sections' lengths
//	checksum  4 bytes, big-endian CRC-32 (IEEE) of everything before it
//
// The lengths trail the sections so a run can stream each section into
// the entry as it writes its outputs, holding no second copy of them.
const (
	renderedMagic   = "SSR1"
	renderedSuffix  = ".ssr1"
	renderedKeySize = 2 * sha256.Size
	renderedTrailer = NumSections*8 + checksumSize
)

// errRendered is the one decode failure of a rendered entry: whatever is
// wrong with it, the caller runs the campaign and rewrites it.
var errRendered = errors.New("not a well-formed rendered entry")

// decodeRendered parses a rendered entry, however hostile, without
// panicking or allocating beyond the name: every length is checked
// against the bytes that remain, and the sections alias data.
func decodeRendered(data []byte) (key []byte, r *Rendered, err error) {
	if len(data) < len(renderedMagic)+renderedKeySize+renderedTrailer ||
		string(data[:len(renderedMagic)]) != renderedMagic {
		return nil, nil, errRendered
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, nil, errRendered
	}
	lengths := body[len(body)-NumSections*8:]
	key = body[len(renderedMagic) : len(renderedMagic)+renderedKeySize]
	rd := entryReader{data: body[len(renderedMagic)+renderedKeySize : len(body)-NumSections*8]}
	nameLen := rd.uvarint()
	if rd.bad || nameLen > uint64(len(rd.data)) {
		return nil, nil, errRendered
	}
	name := rd.data[:nameLen]
	rd.data = rd.data[nameLen:]
	cells, owned := rd.uvarint(), rd.uvarint()
	if rd.bad || cells > maxCells || owned > cells {
		return nil, nil, errRendered
	}
	var sections [NumSections][]byte
	for s := range sections {
		n := binary.BigEndian.Uint64(lengths[8*s:])
		if n > uint64(len(rd.data)) {
			return nil, nil, errRendered
		}
		sections[s], rd.data = rd.data[:n:n], rd.data[n:]
	}
	if len(rd.data) != 0 {
		return nil, nil, errRendered
	}
	return key, &Rendered{Name: string(name), Cells: int(cells), Owned: int(owned), Sections: sections}, nil
}

func renderedPath(dir, key string) string { return filepath.Join(dir, key+renderedSuffix) }

// LoadRendered reads the rendered entry for key from a cache directory:
// one file, checksummed and checked against its key. It returns (nil,
// nil) when there is no entry, and an error when the entry is unreadable,
// damaged or filed under another key; either way the caller runs the
// campaign, which rewrites it.
func LoadRendered(dir, key string) (*Rendered, error) {
	data, err := os.ReadFile(renderedPath(dir, key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
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

// StoreRendered writes a run's outputs and its rendered entry in one
// pass: render is called once for each section, in section order, with a
// writer that feeds both the entry and the section's destination
// (dst[section]; nil writes the entry alone). The entry goes to a temp
// file in dir, renamed into place once the trailer is in, so no reader
// sees a torn entry. An error rendering or writing a destination stops
// the run; an error writing the entry lets the destinations finish,
// drops the temp file and is returned.
func StoreRendered(dir, key, name string, cells, owned int, dst [NumSections]io.Writer,
	render func(section int, w io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: rendered entry: %w", err)
	}
	// Unbuffered: every renderer buffers its own output.
	entryErr, err := writeRendered(tmp, key, name, cells, owned, dst, render)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); entryErr == nil {
		entryErr = err
	}
	if entryErr == nil {
		entryErr = os.Rename(tmp.Name(), renderedPath(dir, key))
	}
	if entryErr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: rendered entry: %w", entryErr)
	}
	return nil
}

// writeRendered encodes a rendered entry to w while render fills the
// destinations, teeing each section into both. It returns the first
// error writing w, after which the entry is abandoned and the
// destinations are still written, and apart from it the first error
// rendering or writing a destination, which stops the pass.
func writeRendered(w io.Writer, key, name string, cells, owned int, dst [NumSections]io.Writer,
	render func(section int, w io.Writer) error) (entryErr, err error) {
	e := &entryWriter{w: w}
	head := make([]byte, 0, len(renderedMagic)+len(key)+len(name)+3*binary.MaxVarintLen64)
	head = append(head, renderedMagic...)
	head = append(head, key...)
	head = binary.AppendUvarint(head, uint64(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(cells))
	head = binary.AppendUvarint(head, uint64(owned))
	e.write(head)
	var lengths [NumSections * 8]byte
	for s := range NumSections {
		start := e.n
		if err := render(s, sectionWriter{e, dst[s]}); err != nil {
			return e.err, err
		}
		binary.BigEndian.PutUint64(lengths[8*s:], uint64(e.n-start))
	}
	e.write(lengths[:])
	e.write(binary.BigEndian.AppendUint32(nil, e.crc))
	return e.err, nil
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
