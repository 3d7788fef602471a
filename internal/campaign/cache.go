package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
)

// EngineVersion stamps every cache fingerprint. Bump it whenever a
// change anywhere in the trial pipeline (engine, model, sched, fault,
// protocols) can alter the records computed for an unchanged cell spec:
// stale entries then miss instead of resurrecting outdated results.
// v2: sequential trial stopping entered the fingerprint (`stop=` line),
// so v1 entries — written before adaptive cells could exist — miss
// cleanly rather than alias an adaptive cell's realized records.
// v3: the topology-churn axis entered the fingerprint (churn=/churn-k=/
// churn-inject= lines) and TrialRecord grew the churnEvents field, so
// v2 entries miss cleanly rather than replay records without it.
// v4: entries moved from reflective JSON to the binary format below (and
// to a new file suffix, see DirBackend), with no reader for the old one:
// v3 entries are never opened, miss cleanly, and are safe to delete.
// v5: MIS's legitimacy predicate leaves isolated processes out, so a
// churned MIS trial that ends with one can change its legitimate field.
const EngineVersion = "campaign-engine-v5"

// cellFingerprint is the canonical content identity of one cell's
// results: everything that determines the records' bytes — the engine
// version, the seed/trial/budget configuration, and the cell's resolved
// coordinates including its seed key. The output `metrics` selection is
// deliberately absent: the cache stores complete records, so re-running
// with different selectors stays a pure cache hit.
func (p *Plan) cellFingerprint(cs *CellSpec) string {
	buf := make([]byte, 0, 512)
	buf = append(buf, EngineVersion...)
	buf = append(buf, "\nseed="...)
	buf = strconv.AppendUint(buf, p.cfg.Seed, 10)
	buf = appendIntLine(buf, "trials=", p.cfg.Trials)
	buf = appendLine(buf, "stop=", p.cfg.Stop.String())
	buf = appendIntLine(buf, "max-steps=", p.cfg.MaxSteps)
	buf = appendIntLine(buf, "suffix-rounds=", cs.suffix)
	buf = appendLine(buf, "graph=", cs.GraphLine)
	buf = appendLine(buf, "protocol=", cs.Protocol)
	buf = appendLine(buf, "daemon=", cs.Daemon)
	buf = appendLine(buf, "adversary=", cs.Adversary)
	buf = appendIntLine(buf, "k=", cs.K)
	buf = appendLine(buf, "inject=", cs.Schedule.String())
	buf = appendLine(buf, "churn=", cs.ChurnName)
	buf = appendIntLine(buf, "churn-k=", cs.ChurnK)
	buf = appendLine(buf, "churn-inject=", cs.ChurnSchedule.String())
	buf = appendLine(buf, "key=", cs.Key)
	return string(buf)
}

// appendLine starts a new fingerprint line holding name and value.
func appendLine(buf []byte, name, value string) []byte {
	buf = append(buf, '\n')
	buf = append(buf, name...)
	return append(buf, value...)
}

func appendIntLine(buf []byte, name string, v int) []byte {
	buf = append(buf, '\n')
	buf = append(buf, name...)
	return strconv.AppendInt(buf, int64(v), 10)
}

// cellHash is the content address: the hex SHA-256 of the fingerprint.
func cellHash(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return hex.EncodeToString(sum[:])
}

// Cache entry format (v4), the one codec between a cell's records and a
// Backend's opaque bytes:
//
//	magic        4 bytes, "SSC4"
//	fingerprint  uvarint length, then the bytes
//	count        uvarint number of records
//	records      count × recordFields signed varints, in TrialRecord
//	             field order (booleans as 0/1)
//	checksum     4 bytes, big-endian CRC-32 (IEEE) of everything before it
//
// The full fingerprint is stored and compared on load, so a hash
// collision degrades to a cache miss, never to wrong results; the
// checksum is what detects a torn or bit-flipped entry. It is the IEEE
// polynomial because hash/crc32 readies that one in microseconds, where
// the Castagnoli tables cost every process 0.3 ms at first use — more
// than decoding a whole suite's entries.
const (
	entryMagic = "SSC4"
	// recordFields is the number of varints per record; each takes at
	// least one byte, which bounds a hostile count before any allocation.
	recordFields = 18
	checksumSize = 4
)

// encodeEntry renders one cell's records under its fingerprint.
func encodeEntry(fingerprint string, records []TrialRecord) []byte {
	buf := make([]byte, 0, len(entryMagic)+2*binary.MaxVarintLen32+len(fingerprint)+
		len(records)*2*recordFields+checksumSize)
	buf = append(buf, entryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(fingerprint)))
	buf = append(buf, fingerprint...)
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for i := range records {
		r := &records[i]
		for _, v := range [recordFields]int64{
			boolInt(r.Silent), boolInt(r.Legitimate),
			int64(r.Steps), int64(r.Rounds), r.Moves, r.Selections,
			r.DisabledSelections, r.CommWrites, int64(r.KEfficiency),
			int64(r.CommBits), r.TotalBits, r.TotalReads,
			int64(r.Injections), int64(r.Recovered), int64(r.MaxRecoveryRounds),
			int64(r.MaxRadius), int64(r.MaxBallRadius), int64(r.ChurnEvents),
		} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// errEntry is the one decode failure: whatever is wrong with a damaged
// entry, the caller's response is the same miss-and-recompute.
var errEntry = errors.New("not a well-formed v4 entry")

// entryReader consumes an entry body; a short or overlong read sets bad
// and every later read returns zero, so decodeEntry checks once.
type entryReader struct {
	data []byte
	bad  bool
}

func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *entryReader) varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return v
}

// int reads a varint that must fit the platform's int.
func (r *entryReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.bad = true
	}
	return int(v)
}

func (r *entryReader) bool() bool {
	v := r.varint()
	if v != 0 && v != 1 {
		r.bad = true
	}
	return v == 1
}

// decodeEntry parses an entry's bytes, however hostile, without
// panicking and without allocating more than the bytes can justify: the
// record count is checked against the remaining length first. It
// verifies magic, checksum, every field's range and that nothing trails
// the last record. The returned fingerprint aliases data.
func decodeEntry(data []byte) (fingerprint []byte, records []TrialRecord, err error) {
	if len(data) < len(entryMagic)+checksumSize || string(data[:len(entryMagic)]) != entryMagic {
		return nil, nil, errEntry
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, nil, errEntry
	}
	r := entryReader{data: body[len(entryMagic):]}
	fpLen := r.uvarint()
	if r.bad || fpLen > uint64(len(r.data)) {
		return nil, nil, errEntry
	}
	fingerprint, r.data = r.data[:fpLen], r.data[fpLen:]
	count := r.uvarint()
	if r.bad || count > uint64(len(r.data))/recordFields {
		return nil, nil, errEntry
	}
	records = make([]TrialRecord, count)
	for i := range records {
		records[i] = TrialRecord{
			Silent:             r.bool(),
			Legitimate:         r.bool(),
			Steps:              r.int(),
			Rounds:             r.int(),
			Moves:              r.varint(),
			Selections:         r.varint(),
			DisabledSelections: r.varint(),
			CommWrites:         r.varint(),
			KEfficiency:        r.int(),
			CommBits:           r.int(),
			TotalBits:          r.varint(),
			TotalReads:         r.varint(),
			Injections:         r.int(),
			Recovered:          r.int(),
			MaxRecoveryRounds:  r.int(),
			MaxRadius:          r.int(),
			MaxBallRadius:      r.int(),
			ChurnEvents:        r.int(),
		}
	}
	if r.bad || len(r.data) != 0 {
		return nil, nil, errEntry
	}
	return fingerprint, records, nil
}

// loadCache returns the cached records for a fingerprint, or nil when
// the entry is absent or stale (wrong fingerprint or record count).
// Fixed-budget cells load exactly minRecs == maxRecs records; adaptive
// cells accept any count within the stop rule's Min..Max bounds — the
// realized count is itself part of the cached result and round-trips as
// len(records). An unreadable or undecodable entry returns a non-nil
// error: callers degrade it to a miss and surface the corruption as a
// diagnostic event instead of silently recomputing.
func loadCache(be Backend, fingerprint string, minRecs, maxRecs int) ([]TrialRecord, error) {
	hash := cellHash(fingerprint)
	data, err := be.Load(hash)
	if err != nil {
		return nil, fmt.Errorf("campaign: cache entry %s unreadable: %w", hash, err)
	}
	if data == nil {
		return nil, nil
	}
	stored, records, err := decodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: cache entry %s corrupt: %w", hash, err)
	}
	if string(stored) != fingerprint || len(records) < minRecs || len(records) > maxRecs {
		// Stale, not corrupt: a hash collision or a changed trial budget.
		// A clean miss recomputes and overwrites.
		return nil, nil
	}
	return records, nil
}

// storeCache persists one cell's records under its fingerprint hash.
func storeCache(be Backend, fingerprint string, records []TrialRecord) error {
	return be.Store(cellHash(fingerprint), encodeEntry(fingerprint, records))
}

// CacheEntries reports how many entries a cache directory currently
// holds and their total size in bytes (diagnostics for tests and the
// CLI's -cache-stats flag).
func CacheEntries(dir string) (entries int, bytes int64, err error) {
	return NewDirBackend(dir).Stats()
}
