package logstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// Segmented is a file-backed log store that rolls to a fresh segment
// file once the active one crosses a size threshold, so a checkpoint can
// reclaim log space by unlinking whole sealed segments instead of
// truncating one ever-growing file. Two invariants make that safe:
//
//   - Segments roll only at group boundaries (tracked by a streaming
//     wal.LogScanner over the appended bytes), so every segment is a
//     self-contained sequence of complete groups — no transaction's
//     writes are split from its commit by a segment edge.
//   - A segment seals with the maximum commit serial the log has carried
//     up to that point (cumulative, hence conservative): TruncateBelow
//     drops a prefix of sealed segments only while that serial is at or
//     below the caller's bound, so no dropped segment can contain a
//     group above any stripe watermark.
//
// The active segment is fsynced before it seals, so a sealed segment is
// always durable in full. A single-file log (OpenFile) is the case with
// one segment and no roll threshold: it opens, appends, syncs and
// reopens the same way, and TruncateBelow drops nothing from it.
type Segmented struct {
	mu       sync.Mutex
	dir      string
	segBytes int64
	name     string // file name of the active segment
	f        *os.File
	w        *bufio.Writer
	size     int64 // bytes appended to the active segment
	scan     wal.LogScanner
	sealed   []SegmentInfo
	closed   bool

	bytesAppended atomic.Uint64
	syncs         atomic.Uint64
	rolls         atomic.Uint64
	reclaimed     atomic.Uint64
}

// SegmentInfo describes one log segment.
type SegmentInfo struct {
	// Name is the file name within the segment directory.
	Name string
	// Bytes is the segment's size.
	Bytes int64
	// MaxSerial is the sealing bound: no group in this segment commits
	// with a serial above it (cumulative across earlier segments, so it
	// may overstate — which only delays truncation, never breaks it).
	// Zero for the active segment, whose bound is still moving.
	MaxSerial uint64
	// Sealed reports whether the segment is closed for appends.
	Sealed bool
}

// DefaultSegmentBytes is the roll threshold used when OpenSegmented is
// given a non-positive one.
const DefaultSegmentBytes = 64 << 20

const segPrefix, segSuffix = "wal-", ".seg"

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

func segmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	return n, err == nil
}

// ListSegments returns the segment file names in dir in log order.
func ListSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := segmentSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := segmentSeq(names[i])
		b, _ := segmentSeq(names[j])
		return a < b
	})
	return names, nil
}

// OpenSegmentsReader returns a reader over the concatenation of every
// segment in dir, in log order — the stream recovery replays. An empty
// or absent directory yields an empty stream.
func OpenSegmentsReader(dir string) (io.ReadCloser, error) {
	names, err := ListSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return io.NopCloser(strings.NewReader("")), nil
		}
		return nil, err
	}
	mr := &multiFileReader{}
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			mr.Close()
			return nil, err
		}
		mr.files = append(mr.files, f)
		mr.readers = append(mr.readers, bufio.NewReaderSize(f, 1<<16))
	}
	return mr, nil
}

type multiFileReader struct {
	files   []*os.File
	readers []io.Reader
}

func (m *multiFileReader) Read(p []byte) (int, error) {
	for len(m.readers) > 0 {
		n, err := m.readers[0].Read(p)
		if err == io.EOF {
			m.readers = m.readers[1:]
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

func (m *multiFileReader) Close() error {
	var first error
	for _, f := range m.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.files = nil
	m.readers = nil
	return first
}

// OpenSegmented opens (creating if needed) a segmented log in dir,
// rolling segments at segBytes (DefaultSegmentBytes if non-positive).
func OpenSegmented(dir string, segBytes int64) (*Segmented, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		names = []string{segmentName(1)}
	}
	return openLog(dir, names, segBytes)
}

// OpenFile opens (creating if needed) the single-file log at path: a
// segmented log whose only segment is path and which never rolls.
func OpenFile(path string) (*Segmented, error) {
	return openLog(filepath.Dir(path), []string{filepath.Base(path)}, 0)
}

// openLog opens the log made of the files names in dir, in log order;
// the last one is the active file, created if absent. The sealed files
// are scanned to rebuild their sealing serials. The active file is cut
// back to its last group boundary and appends resume there. Every writer
// appends whole groups, so what follows that boundary is one group a
// crash left unfinished (a torn record, or writes without their commit):
// exactly the bytes replay stops at or discards. A segBytes of 0 never
// rolls.
func openLog(dir string, names []string, segBytes int64) (*Segmented, error) {
	s := &Segmented{dir: dir, segBytes: segBytes}
	for _, name := range names[:len(names)-1] {
		boundary, err := s.scanFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.sealed = append(s.sealed, SegmentInfo{
			Name: name, Bytes: boundary, MaxSerial: s.scan.MaxSerial(), Sealed: true,
		})
	}
	s.name = names[len(names)-1]
	path := filepath.Join(dir, s.name)
	boundary, err := s.scanFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > boundary {
		// Only a file longer than its boundary is cut: a device such
		// as /dev/full has no length and cannot be truncated.
		err = f.Truncate(boundary)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.f, s.size = f, boundary
	s.w = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// scanFile feeds the whole groups of one log file through the boundary
// scanner and returns the offset of the file's last group boundary; an
// absent file is empty. Damage or a torn tail ends the scan at the last
// complete record, exactly as replay would, and the scanner never sees
// the bytes past the boundary, so appends resume in step with it.
func (s *Segmented) scanFile(path string) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var (
		boundary int64
		probe    wal.LogScanner // a file starts at a group boundary
		raw      bytes.Buffer   // the record Decode is reading
		group    []byte         // records since the last boundary
	)
	r := io.TeeReader(bufio.NewReaderSize(f, 1<<16), &raw)
	for {
		raw.Reset()
		if _, err := wal.Decode(r); err != nil {
			return boundary, nil
		}
		probe.Scan(raw.Bytes())
		group = append(group, raw.Bytes()...)
		if probe.AtBoundary() {
			s.scan.Scan(group)
			boundary += int64(len(group))
			group = group[:0]
		}
	}
}

// openNextLocked creates and switches to segment seq.
func (s *Segmented) openNextLocked(seq uint64) error {
	name := segmentName(seq)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	s.name, s.f, s.size = name, f, 0
	s.w.Reset(f)
	return nil
}

// Append implements Store.
func (s *Segmented) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.appendLocked(p); err != nil {
		return err
	}
	return s.maybeRollLocked()
}

// AppendBatch implements Store: the whole cohort lands under one lock,
// and the roll check runs once at the end — a cohort is a sequence of
// complete groups, so its end is a boundary whenever the scanner says
// so.
func (s *Segmented) AppendBatch(chunks [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, p := range chunks {
		if err := s.appendLocked(p); err != nil {
			return err
		}
	}
	return s.maybeRollLocked()
}

func (s *Segmented) appendLocked(p []byte) error {
	n, err := s.w.Write(p)
	s.size += int64(n)
	s.bytesAppended.Add(uint64(n))
	s.scan.Scan(p[:n])
	return err
}

// maybeRollLocked seals the active segment once it crosses the size
// threshold, but only at a group boundary; mid-group the roll waits for
// the next append that closes the group.
func (s *Segmented) maybeRollLocked() error {
	if s.segBytes == 0 || s.size < s.segBytes || !s.scan.AtBoundary() {
		return nil
	}
	// Seal order matters: flush and fsync the old segment BEFORE sealing
	// and switching, so a later Sync on the new segment cannot leave
	// acked commits unsynced in a file nothing writes to anymore.
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	old, oldName, oldSize := s.f, s.name, s.size
	seq, _ := segmentSeq(oldName)
	if err := s.openNextLocked(seq + 1); err != nil {
		// Could not create the next file: openNextLocked left all state
		// untouched, so appends continue on the current segment.
		return err
	}
	s.sealed = append(s.sealed, SegmentInfo{
		Name: oldName, Bytes: oldSize, MaxSerial: s.scan.MaxSerial(), Sealed: true,
	})
	s.rolls.Add(1)
	s.syncs.Add(1)
	return old.Close()
}

// Sync implements Store.
func (s *Segmented) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.syncs.Add(1)
	return s.f.Sync()
}

// Close implements Store.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Stats returns I/O accounting. The counters are atomics, so Stats never
// blocks behind the device: a monitoring read during a slow fsync (which
// holds mu for its whole duration) must not stall.
func (s *Segmented) Stats() Stats {
	return Stats{
		BytesAppended: s.bytesAppended.Load(),
		Syncs:         s.syncs.Load(),
	}
}

// Segments returns the current segment list, sealed first, active last.
func (s *Segmented) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.sealed)+1)
	out = append(out, s.sealed...)
	out = append(out, SegmentInfo{Name: s.name, Bytes: s.size})
	return out
}

// Reclaimed reports the total bytes of sealed segments dropped by
// TruncateBelow over the store's lifetime.
func (s *Segmented) Reclaimed() uint64 { return s.reclaimed.Load() }

// TruncateBelow implements SerialTruncator: it unlinks the longest
// prefix of sealed segments whose sealing serial is at or below serial.
// The active segment and any sealed segment that might hold a group
// above the bound survive untouched.
func (s *Segmented) TruncateBelow(serial uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	dropped := 0
	var bytes int64
	for _, seg := range s.sealed {
		if seg.MaxSerial > serial {
			break
		}
		if err := os.Remove(filepath.Join(s.dir, seg.Name)); err != nil {
			break
		}
		dropped++
		bytes += seg.Bytes
	}
	if dropped == 0 {
		return 0, nil
	}
	s.sealed = append([]SegmentInfo(nil), s.sealed[dropped:]...)
	s.reclaimed.Add(uint64(bytes))
	return int(bytes), nil
}
