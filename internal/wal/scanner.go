package wal

import "encoding/binary"

// LogScanner is a streaming frame tracker for an append path: feed it
// every byte written to a log device, in order, and it tells you whether
// the stream currently ends at a group boundary — no partial record and
// no group open, its writes scanned and its commit not — and the largest
// commit serial seen so far. A segmented log store uses it to roll
// segment files only at points where the prefix is a self-contained
// group sequence, which is what makes whole-segment truncation safe.
//
// The scanner trusts its input (it is fed the writer's own bytes, not a
// disk read-back), so it tracks framing only and skips checksums.
type LogScanner struct {
	hdr  [headerSize]byte
	hdrN int    // bytes of the current header buffered
	skip uint32 // after-image bytes still to consume
	open bool   // a group's writes are scanned and its commit is not

	records   uint64
	maxSerial uint64
}

// Scan consumes the next chunk of appended bytes.
func (s *LogScanner) Scan(b []byte) {
	for len(b) > 0 {
		if s.skip > 0 {
			n := uint32(len(b))
			if n > s.skip {
				n = s.skip
			}
			s.skip -= n
			b = b[n:]
			continue
		}
		n := copy(s.hdr[s.hdrN:], b)
		s.hdrN += n
		b = b[n:]
		if s.hdrN < headerSize {
			return
		}
		s.hdrN = 0
		s.skip = binary.LittleEndian.Uint32(s.hdr[4:])
		s.records++
		switch Type(s.hdr[8]) {
		case TypeWrite, TypeDelete:
			s.open = true
		case TypeCommit:
			s.open = false
			s.maxSerial = max(s.maxSerial, binary.LittleEndian.Uint64(s.hdr[17:]))
		}
	}
}

// AtBoundary reports whether everything scanned so far forms a
// self-contained group sequence: no record is cut mid-frame and no
// group is open.
func (s *LogScanner) AtBoundary() bool {
	return s.hdrN == 0 && s.skip == 0 && !s.open
}

// MaxSerial reports the largest commit SerialOrder scanned so far. It is
// cumulative across segment rolls by design: sealing a segment with a
// serial ≥ any commit it contains only makes truncation keep the segment
// longer than strictly necessary, never drop it too early.
func (s *LogScanner) MaxSerial() uint64 { return s.maxSerial }

// Records reports how many complete record headers have been scanned.
func (s *LogScanner) Records() uint64 { return s.records }
