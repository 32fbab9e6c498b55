package bagconsist

import (
	"encoding/binary"
	"fmt"

	"bagconsistency/internal/canon"
	"bagconsistency/internal/store"
)

// Store is a persistent, content-addressed result store: the disk tier
// of the two-tier cache. Results are keyed by canonical instance
// fingerprint (plus query kind and an options hash), so — exactly like
// the RAM tier — a disk hit does not require byte-identical input, and a
// stored witness is re-expressed in each hitting instance's own values.
//
// Open one Store per data directory per process (the directory carries
// an advisory lock) and attach it to a Checker with WithStore. The same
// Store may back several Checkers: keys embed each Checker's options, so
// configurations never cross-contaminate.
type Store struct {
	st *store.Store
}

// StoreStats is a snapshot of disk-tier occupancy and traffic; see
// Store.Stats.
type StoreStats = store.Stats

// StoreCompactResult summarizes a Store.Compact call.
type StoreCompactResult = store.CompactResult

// persistConfig collects PersistOption settings.
type persistConfig struct {
	segmentBytes int64
	syncOnPut    bool
	logf         func(format string, args ...any)
}

// PersistOption configures OpenStore.
type PersistOption func(*persistConfig)

// WithSegmentBytes sets the segment rotation threshold (default 64 MiB).
func WithSegmentBytes(n int64) PersistOption {
	return func(p *persistConfig) { p.segmentBytes = n }
}

// WithSyncOnPut fsyncs after every stored result. Off by default: a lost
// tail only costs a recomputation, never correctness.
func WithSyncOnPut(on bool) PersistOption {
	return func(p *persistConfig) { p.syncOnPut = on }
}

// WithStoreLog routes the store's recovery warnings (torn tail repaired,
// corrupt record skipped) to logf.
func WithStoreLog(logf func(format string, args ...any)) PersistOption {
	return func(p *persistConfig) { p.logf = logf }
}

// OpenStore opens (creating if needed) the persistent result store in
// dir, scanning its segment log to rebuild the index. A torn tail left
// by a crash is repaired by truncation; corrupt records are skipped and
// counted. The caller owns the handle: close it after every Checker
// using it is done.
func OpenStore(dir string, opts ...PersistOption) (*Store, error) {
	var pc persistConfig
	for _, o := range opts {
		o(&pc)
	}
	st, err := store.Open(dir, store.Options{
		SegmentBytes: pc.segmentBytes,
		SyncOnPut:    pc.syncOnPut,
		Logf:         pc.logf,
	})
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// Stats returns disk-tier occupancy and hit/miss/write counters.
func (s *Store) Stats() StoreStats { return s.st.Stats() }

// Len returns the number of live stored results.
func (s *Store) Len() int { return s.st.Len() }

// Compact rewrites the log keeping only live records, reclaiming the
// space of superseded and corrupt ones. Safe while serving.
func (s *Store) Compact() (StoreCompactResult, error) { return s.st.Compact() }

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error { return s.st.Sync() }

// Close syncs and closes the store and releases the directory lock.
func (s *Store) Close() error { return s.st.Close() }

// storeKindGlobal is the on-disk kind byte of a CheckGlobal result, the
// one kind written. Kind 1 stays unused: stores written by earlier
// releases hold CheckPair results under it.
const storeKindGlobal = 2

// storeKey builds the disk-tier key: fingerprint + kind byte + FNV-64a
// of the options key. (The options strings per process are few and
// fixed, so a 64-bit hash has no meaningful collision exposure.)
func storeKey(optsKey string, fp canon.Fingerprint) store.Key {
	k := store.Key{Kind: storeKindGlobal, OptsHash: fnv64a(optsKey)}
	k.FP = fp
	return k
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Payload codec: a cachedResult in a compact, self-describing binary
// form. Like the RAM tier's entries, payloads carry witnesses as
// canonical index vectors, so one stored record serves every instance in
// the fingerprint's isomorphism class.
const payloadVersion = 1

const (
	payloadFlagConsistent = 1 << iota
	payloadFlagWitness
)

// encodePayload serializes a cachedResult.
func encodePayload(cr *cachedResult) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, payloadVersion)
	var flags byte
	if cr.consistent {
		flags |= payloadFlagConsistent
	}
	if cr.witnessAttrs != nil {
		flags |= payloadFlagWitness
	}
	buf = append(buf, flags)
	buf = appendUvarint(buf, uint64(cr.bags))
	buf = appendUvarint(buf, uint64(cr.nodes))
	buf = appendUvarint(buf, 0) // the retired max-flow value slot
	buf = appendUvarint(buf, uint64(cr.witnessSupport))
	buf = appendString(buf, cr.method)
	if cr.witnessAttrs != nil {
		buf = appendUvarint(buf, uint64(len(cr.witnessAttrs)))
		for _, a := range cr.witnessAttrs {
			buf = appendString(buf, a)
		}
		buf = appendUvarint(buf, uint64(len(cr.witnessRows)))
		for _, row := range cr.witnessRows {
			buf = appendUvarint(buf, uint64(row.count))
			for _, idx := range row.indices {
				buf = appendUvarint(buf, uint64(idx))
			}
		}
	}
	return buf
}

// decodePayload is the strict inverse of encodePayload. Every length is
// bounds-checked against the remaining input and collections grow by
// appending as elements actually decode, so a corrupt payload that
// slipped past the store's CRC still cannot over-allocate or panic.
func decodePayload(data []byte) (*cachedResult, error) {
	d := payloadDecoder{data: data}
	if v, err := d.byte(); err != nil {
		return nil, err
	} else if v != payloadVersion {
		return nil, fmt.Errorf("bagconsist: unknown payload version %d", v)
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	cr := &cachedResult{consistent: flags&payloadFlagConsistent != 0}
	if cr.bags, err = d.intVal(); err != nil {
		return nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	cr.nodes = int64(n)
	if _, err = d.uvarint(); err != nil { // the retired max-flow value slot
		return nil, err
	}
	if cr.witnessSupport, err = d.intVal(); err != nil {
		return nil, err
	}
	if cr.method, err = d.str(); err != nil {
		return nil, err
	}
	if flags&payloadFlagWitness != 0 {
		nAttrs, err := d.length()
		if err != nil {
			return nil, err
		}
		// Grow by appending with a small initial capacity rather than
		// trusting the claimed count: a crafted (even CRC-valid) record
		// can then never force more allocation than its actual bytes
		// decode to.
		cr.witnessAttrs = make([]string, 0, min(nAttrs, 64))
		for i := 0; i < nAttrs; i++ {
			a, err := d.str()
			if err != nil {
				return nil, err
			}
			cr.witnessAttrs = append(cr.witnessAttrs, a)
		}
		nRows, err := d.length()
		if err != nil {
			return nil, err
		}
		cr.witnessRows = make([]cachedRow, 0, min(nRows, 1024))
		for i := 0; i < nRows; i++ {
			cnt, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			// len(witnessAttrs) is now the count of attrs actually
			// decoded, so this bound is backed by real bytes.
			idx := make([]int, len(cr.witnessAttrs))
			for j := range idx {
				if idx[j], err = d.intVal(); err != nil {
					return nil, err
				}
			}
			cr.witnessRows = append(cr.witnessRows, cachedRow{indices: idx, count: int64(cnt)})
		}
	}
	if len(d.data) != d.off {
		return nil, fmt.Errorf("bagconsist: %d trailing payload bytes", len(d.data)-d.off)
	}
	return cr, nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type payloadDecoder struct {
	data []byte
	off  int
}

func (d *payloadDecoder) byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, fmt.Errorf("bagconsist: truncated payload")
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *payloadDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bagconsist: bad varint in payload")
	}
	d.off += n
	return v, nil
}

// intVal reads a uvarint that must fit a non-negative int.
func (d *payloadDecoder) intVal() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("bagconsist: payload value %d overflows int", v)
	}
	return int(v), nil
}

// str reads a length-prefixed string, bounds-checked.
func (d *payloadDecoder) str() (string, error) {
	n, err := d.length()
	if err != nil {
		return "", err
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s, nil
}

// length reads a collection length, bounded by the bytes that remain —
// every element costs at least one byte, so anything larger is corrupt.
func (d *payloadDecoder) length() (int, error) {
	v, err := d.intVal()
	if err != nil {
		return 0, err
	}
	if v > len(d.data)-d.off {
		return 0, fmt.Errorf("bagconsist: payload length %d exceeds remaining %d bytes", v, len(d.data)-d.off)
	}
	return v, nil
}

// approxBytes estimates the RAM footprint of a cached result for the
// cache's byte accounting.
func (cr *cachedResult) ApproxBytes() int {
	n := 64 + len(cr.method)
	for _, a := range cr.witnessAttrs {
		n += len(a) + 16
	}
	for _, row := range cr.witnessRows {
		n += 24 + 8*len(row.indices)
	}
	return n
}
