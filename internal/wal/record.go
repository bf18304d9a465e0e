// Package wal implements RODAIN's redo-only transaction log: record
// encoding, the one replay operator behind recovery and the mirror's live
// apply, and database checkpoints.
//
// Log records serve two purposes in a RODAIN node (§3 of the paper):
// they keep the database copy on the Mirror Node up to date, and they are
// stored on secondary media like a traditional database log so that the
// database survives even a simultaneous failure of both nodes.
//
// Records are generated in a transaction's write phase, after it has been
// accepted for commit: one Write record per updated item (transaction id,
// object id, after image) and one Commit record per transaction — also
// for read-only transactions, which is why read-only and update commit
// times stay close. There are no undo records: a transaction that entered
// its write phase will commit unless the node fails, and the mirror
// applies updates only when it has seen the commit record, so recovery
// never undoes anything.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/store"
	"repro/internal/txn"
)

// Type discriminates log record kinds.
type Type uint8

// Record kinds. The codes are stored on disk, so they are pinned. Codes 3
// and 4 are retired (no writer produces them) and decode as ErrCorrupt.
const (
	// TypeWrite carries one updated item's after image.
	TypeWrite Type = 1
	// TypeCommit marks a transaction committed; its log records are
	// complete. SerialOrder carries the true validation order.
	TypeCommit Type = 2
	// TypeDelete removes one item (transaction id, object id).
	TypeDelete Type = 5
)

func (t Type) String() string {
	switch t {
	case TypeWrite:
		return "write"
	case TypeCommit:
		return "commit"
	case TypeDelete:
		return "delete"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one log record.
type Record struct {
	Type Type
	// TxnID identifies the transaction on the node that executed it.
	TxnID txn.ID
	// SerialOrder is the true validation order, set on Commit records.
	SerialOrder uint64
	// CommitTS is the serialization timestamp, set on Commit records.
	CommitTS uint64
	// ObjectID and AfterImage are set on Write records.
	ObjectID   store.ObjectID
	AfterImage []byte
}

// ErrCorrupt reports a record whose checksum or framing is invalid.
var ErrCorrupt = errors.New("wal: corrupt record")

// header layout: crc(4) len(4) type(1) txn(8) serial(8) ts(8) obj(8) = 41
// bytes, followed by len bytes of after image. crc covers everything
// after itself.
const headerSize = 4 + 4 + 1 + 8 + 8 + 8 + 8

// MaxImageSize bounds a single after image; larger records are rejected
// as corrupt rather than causing huge allocations on a damaged log.
const MaxImageSize = 1 << 26 // 64 MiB

// EncodedSize reports the on-disk size of r.
func EncodedSize(r *Record) int { return headerSize + len(r.AfterImage) }

// AppendEncoded appends the encoded form of r to dst and returns the
// extended slice.
func AppendEncoded(dst []byte, r *Record) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(len(r.AfterImage)))
	dst[off+8] = byte(r.Type)
	binary.LittleEndian.PutUint64(dst[off+9:], uint64(r.TxnID))
	binary.LittleEndian.PutUint64(dst[off+17:], r.SerialOrder)
	binary.LittleEndian.PutUint64(dst[off+25:], r.CommitTS)
	binary.LittleEndian.PutUint64(dst[off+33:], uint64(r.ObjectID))
	dst = append(dst, r.AfterImage...)
	crc := crc32.ChecksumIEEE(dst[off+4:])
	binary.LittleEndian.PutUint32(dst[off:], crc)
	return dst
}

// Encode writes r to w.
func Encode(w io.Writer, r *Record) error {
	_, err := w.Write(AppendEncoded(nil, r))
	return err
}

// DecodeNext decodes the record at the start of b and reports how many
// bytes it takes, for a buffer that holds a run of records back to back
// (a log frame, or a stored log). The after image is copied out of b, so
// the caller may reuse b immediately. It returns io.EOF for an empty b,
// io.ErrUnexpectedEOF if b ends mid-record, and ErrCorrupt on checksum or
// framing damage.
func DecodeNext(b []byte) (*Record, int, error) {
	rec, n, err := decodeInPlace(b)
	if err != nil {
		return nil, 0, err
	}
	if rec.AfterImage != nil {
		rec.AfterImage = append([]byte(nil), rec.AfterImage...)
	}
	return &rec, n, nil
}

// decodeInPlace is DecodeNext with the after image aliasing b (nil when
// empty) and the record returned by value, so it allocates nothing.
func decodeInPlace(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < headerSize {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	rec, imgLen, err := parseHeader(b[:headerSize])
	if err != nil {
		return Record{}, 0, err
	}
	n := headerSize + imgLen
	if len(b) < n {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	if imgLen > 0 {
		rec.AfterImage = b[headerSize:n]
	}
	if err := check(&rec, b[:headerSize]); err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// WalkGroups walks the record headers of b, bytes a writer has just
// encoded, without a checksum pass: it reports the largest commit serial
// in b and whether b is a run of whole groups, ending right after a
// commit record. An empty b is whole. A rolling log store checks each
// append with it, since it may roll only at a group boundary.
func WalkGroups(b []byte) (maxSerial uint64, whole bool) {
	whole = true
	for off := 0; off < len(b); {
		if len(b)-off < headerSize {
			return maxSerial, false
		}
		rec, imgLen, err := parseHeader(b[off : off+headerSize])
		if err != nil {
			return maxSerial, false
		}
		if off += headerSize + imgLen; off > len(b) {
			return maxSerial, false
		}
		if whole = rec.Type == TypeCommit; whole {
			maxSerial = max(maxSerial, rec.SerialOrder)
		}
	}
	return maxSerial, whole
}

// NextGroup checks the group at the start of b, the unit the stored log
// is read in: one transaction's writes and deletes closed by its commit
// record. Each record's checksum and type must hold, and every record
// must carry the first one's transaction id. It reports the group's
// length and its commit record, whose after image aliases b.
//
// It returns io.EOF for an empty b, io.ErrUnexpectedEOF when b ends inside
// the group, and an error wrapping ErrCorrupt on damage. On an error n is
// the length of the checked records before the failure: n == len(b) with
// io.ErrUnexpectedEOF means b ends at a record boundary inside the group.
func NextGroup(b []byte) (n int, commit Record, err error) {
	if len(b) == 0 {
		return 0, Record{}, io.EOF
	}
	for {
		rec, k, err := nextInGroup(b, n)
		if err != nil {
			return n, Record{}, err
		}
		if n += k; rec.Type == TypeCommit {
			return n, rec, nil
		}
	}
}

// nextInGroup is NextGroup's step: it checks the record at b[off:] as the
// next one of the group that starts at b, and reports its length.
func nextInGroup(b []byte, off int) (Record, int, error) {
	rec, k, err := decodeInPlace(b[off:])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // off > 0: the group has no commit yet
	}
	if err != nil {
		return Record{}, 0, err
	}
	if id := txn.ID(binary.LittleEndian.Uint64(b[9:])); off > 0 && rec.TxnID != id {
		return Record{}, 0, fmt.Errorf("%w: a record of transaction %d inside the group of transaction %d",
			ErrCorrupt, rec.TxnID, id)
	}
	return rec, k, nil
}

// ReadGroup reads the next group from r into buf, reusing its capacity,
// and returns it, checked record by record with NextGroup's step. The
// buffer doubles when full, and only as bytes arrive, so a damaged length
// field never allocates more than the stream holds.
//
// At the end of r it returns io.EOF, with an empty slice at a group
// boundary, or with the checked records of a group the stream ended
// inside. A stream that ends mid-record yields io.ErrUnexpectedEOF and
// damage an error wrapping ErrCorrupt, the slice again holding the
// group's checked records before the failure. Other read errors are
// returned as they are.
func ReadGroup(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		off := len(buf)
		var err error
		if buf, err = readRecord(r, buf); err != nil {
			return buf[:off], err
		}
		rec, _, err := nextInGroup(buf, off)
		if err != nil {
			return buf[:off], err
		}
		if rec.Type == TypeCommit {
			return buf, nil
		}
	}
}

// readRecord appends the next record's bytes from r to buf: io.EOF if r
// ends before it, io.ErrUnexpectedEOF if r ends inside it, and ErrCorrupt
// for a length field above MaxImageSize.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	off := len(buf)
	buf, err := readAppend(r, buf, headerSize)
	if err == io.EOF && len(buf) > off {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return buf, err
	}
	_, imgLen, err := parseHeader(buf[off:])
	if err != nil {
		return buf, err
	}
	if buf, err = readAppend(r, buf, imgLen); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// readAppend appends k bytes of r to buf, doubling its capacity whenever
// it is full.
func readAppend(r io.Reader, buf []byte, k int) ([]byte, error) {
	for k > 0 {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, max(2*cap(buf), 512)), buf...)
		}
		m := min(k, cap(buf)-len(buf))
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+m])
		buf, k = buf[:len(buf)+got], k-got
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// parseHeader decodes a record header into a record without its after
// image, and returns the image length; a length above MaxImageSize is
// ErrCorrupt.
func parseHeader(h []byte) (Record, int, error) {
	imgLen := binary.LittleEndian.Uint32(h[4:])
	if imgLen > MaxImageSize {
		return Record{}, 0, ErrCorrupt
	}
	return Record{
		Type:        Type(h[8]),
		TxnID:       txn.ID(binary.LittleEndian.Uint64(h[9:])),
		SerialOrder: binary.LittleEndian.Uint64(h[17:]),
		CommitTS:    binary.LittleEndian.Uint64(h[25:]),
		ObjectID:    store.ObjectID(binary.LittleEndian.Uint64(h[33:])),
	}, int(imgLen), nil
}

// check verifies a decoded record against its header h: the checksum over
// the header and the after image, and a known type.
func check(rec *Record, h []byte) error {
	crc := crc32.Update(crc32.ChecksumIEEE(h[4:]), crc32.IEEETable, rec.AfterImage)
	if crc != binary.LittleEndian.Uint32(h[:4]) {
		return ErrCorrupt
	}
	switch rec.Type {
	case TypeWrite, TypeCommit, TypeDelete:
		return nil
	}
	return ErrCorrupt
}

// WriteRecordsFor builds the redo records for a validated transaction:
// one Write record per staged after image, in first-write order.
func WriteRecordsFor(t *txn.Transaction) []*Record {
	ids := t.WriteIDs()
	recs := make([]*Record, 0, len(ids))
	for _, id := range ids {
		if t.IsDelete(id) {
			recs = append(recs, &Record{Type: TypeDelete, TxnID: t.ID, ObjectID: id})
			continue
		}
		img, _ := t.WriteImage(id)
		recs = append(recs, &Record{
			Type:       TypeWrite,
			TxnID:      t.ID,
			ObjectID:   id,
			AfterImage: img,
		})
	}
	return recs
}

// CommitRecordFor builds the commit record for a validated transaction.
func CommitRecordFor(t *txn.Transaction) *Record {
	return &Record{
		Type:        TypeCommit,
		TxnID:       t.ID,
		SerialOrder: t.SerialOrder,
		CommitTS:    t.CommitTS,
	}
}

// Group is one committed transaction's log records in apply order: all
// Write records followed by the Commit record.
type Group struct {
	Writes []*Record
	Commit *Record
}

// SerialOrder reports the group's true validation order.
func (g *Group) SerialOrder() uint64 { return g.Commit.SerialOrder }

// Flatten returns the group's records in stored-log order: writes first,
// then the commit record.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (g *Group) Flatten() []*Record {
	out := make([]*Record, 0, len(g.Writes)+1)
	out = append(out, g.Writes...)
	return append(out, g.Commit)
}

// AppendEncoded appends the group's records in stored-log order to dst
// and returns the extended slice — Flatten + AppendEncoded without the
// intermediate slice, for the commit hot path.
func (g *Group) AppendEncoded(dst []byte) []byte {
	for _, rec := range g.Writes {
		dst = AppendEncoded(dst, rec)
	}
	return AppendEncoded(dst, g.Commit)
}

func (r *Record) String() string {
	switch r.Type {
	case TypeWrite:
		return fmt.Sprintf("write{txn=%d obj=%d len=%d}", r.TxnID, r.ObjectID, len(r.AfterImage))
	case TypeCommit:
		return fmt.Sprintf("commit{txn=%d serial=%d ts=%d}", r.TxnID, r.SerialOrder, r.CommitTS)
	case TypeDelete:
		return fmt.Sprintf("delete{txn=%d obj=%d}", r.TxnID, r.ObjectID)
	default:
		return fmt.Sprintf("record{type=%d}", r.Type)
	}
}
