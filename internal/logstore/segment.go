package logstore

import (
	"bufio"
	"cmp"
	"errors"
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
//   - Every append is whole groups (checked by a wal.WalkGroups header
//     walk), so segments roll only at group boundaries and every segment
//     is a self-contained sequence of complete groups — no transaction's
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
	mu        sync.Mutex
	dir       string
	segBytes  int64
	name      string // file name of the active segment
	f         *os.File
	w         *bufio.Writer
	size      int64  // bytes appended to the active segment
	maxSerial uint64 // the largest commit serial kept or appended so far
	sealed    []SegmentInfo
	closed    bool

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

// OpenSegmentsReader returns a reader over the stored log at path: the
// concatenation of every segment in a directory, in log order, or a
// single log file as its one-segment case (like OpenFile). An absent path
// or an empty directory yields an empty stream. The reader is not
// buffered.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6. Read is the
// read of a stored log that writes nothing; a node recovers its log in
// Open.
func OpenSegmentsReader(path string) (io.ReadCloser, error) {
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return io.NopCloser(strings.NewReader("")), nil
	}
	if err != nil {
		return nil, err
	}
	dir, names := filepath.Dir(path), []string{filepath.Base(path)}
	if fi.IsDir() {
		dir = path
		if names, err = ListSegments(dir); err != nil {
			return nil, err
		}
	}
	var (
		files   files
		readers []io.Reader
	)
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			files.Close()
			return nil, err
		}
		files, readers = append(files, f), append(readers, f)
	}
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(readers...), files}, nil
}

// files closes every file it holds and returns the first error.
type files []*os.File

func (fs files) Close() error {
	var first error
	for _, f := range fs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenSegmented opens (creating if needed) a segmented log in dir,
// rolling segments at segBytes (DefaultSegmentBytes if non-positive).
func OpenSegmented(dir string, segBytes int64) (*Segmented, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	return Open(dir, segBytes, nil)
}

// OpenFile opens (creating if needed) the single-file log at path: a
// segmented log whose only segment is path and which never rolls.
func OpenFile(path string) (*Segmented, error) { return Open(path, 0, nil) }

// Contents is what Read found in a stored log.
type Contents struct {
	Dir    string        // the directory of the log's files
	Sealed []SegmentInfo // the segments before the active file, each kept whole
	// Active names the last file in Dir, the one appends go to; "" if
	// there is none (an absent path or a directory without segments).
	Active string
	// End says where the groups of the active file that replay accepted
	// end (Kept) and why the file goes on (Stop); Size is its length.
	// Open cuts the bytes between Kept and Size.
	wal.End
	Size      int64
	MaxSerial uint64 // the largest commit serial kept
}

// Read reads the stored log at path, writing nothing: a directory is
// read as its segments in log order, any other path as a single-file
// log, and an absent path as an empty log. It reads every file a whole
// group at a time (wal.ReadGroups) and hands each group to replay, if
// set, before it counts the group as kept. The log ends at the first
// group ReadGroups refuses or replay rejects: the same stop a replay of
// the log makes. In the active (last) file, whose tail a crash may leave
// unfinished, Contents reports where and why. Before it, the stop lies
// in a sealed segment, which was fsynced whole before it sealed: that is
// damage, and Read returns an error wrapping wal.ErrCorrupt that names
// the segment and the offset.
func Read(path string, replay func(group []byte) error) (Contents, error) {
	c := Contents{Dir: filepath.Dir(path), Active: filepath.Base(path)}
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return Contents{Dir: c.Dir}, nil
	}
	if err == nil && fi.IsDir() {
		var names []string
		if names, err = ListSegments(path); err != nil || len(names) == 0 {
			return Contents{Dir: path}, err
		}
		c.Dir, c.Active = path, names[len(names)-1]
		for _, name := range names[:len(names)-1] {
			end, _, err := c.readFile(name, replay)
			if err == nil && end.Stop != nil {
				err = fmt.Errorf("%w: sealed segment %s ends at offset %d: %v", wal.ErrCorrupt,
					filepath.Join(path, name), end.Kept, end.Stop)
			}
			if err != nil {
				return c, err
			}
			c.Sealed = append(c.Sealed, SegmentInfo{Name: name, Bytes: end.Kept, MaxSerial: c.MaxSerial, Sealed: true})
		}
	}
	if err == nil {
		c.End, c.Size, err = c.readFile(c.Active, replay)
	}
	return c, err
}

// readFile hands the whole groups of the file name in c.Dir to replay (if
// set), raising c.MaxSerial, and returns where they end and the file's
// size.
func (c *Contents) readFile(name string, replay func([]byte) error) (wal.End, int64, error) {
	f, err := os.Open(filepath.Join(c.Dir, name))
	if err != nil {
		return wal.End{}, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return wal.End{}, 0, err
	}
	end, err := wal.ReadGroups(f, func(g []byte) error {
		if replay != nil {
			if err := replay(g); err != nil {
				return err
			}
		}
		serial, _ := wal.WalkGroups(g)
		c.MaxSerial = max(c.MaxSerial, serial)
		return nil
	})
	return end, fi.Size(), err
}

// Open opens (creating if needed) the log at path and recovers it in the
// same pass: with segBytes > 0 path is a directory of segments rolling at
// segBytes, otherwise one file that never rolls. It is Read, which hands
// replay every group kept and refuses a damaged sealed segment, and then
// the writes: it creates the directory and the active file if need be,
// and cuts the active file to the groups kept, where appends resume. The
// bytes cut are first written to <file>.cut-<offset> beside it and
// fsynced (a further ".<n>" if that name is taken), so damage that ends
// the log early leaves the acknowledged groups after it on disk.
// ListSegments ignores such a file, and nothing removes it.
func Open(path string, segBytes int64, replay func(group []byte) error) (*Segmented, error) {
	c, err := Read(path, replay)
	if err != nil {
		return nil, err
	}
	s := &Segmented{dir: filepath.Dir(path), name: filepath.Base(path), segBytes: max(segBytes, 0),
		sealed: c.Sealed, maxSerial: c.MaxSerial}
	if s.segBytes > 0 {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return nil, err
		}
		s.dir, s.name = path, cmp.Or(c.Active, segmentName(1))
	}
	f, err := os.OpenFile(filepath.Join(s.dir, s.name), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Only a file longer than what was kept is cut: a device such as
	// /dev/full has no length and cannot be truncated.
	if c.Size > c.Kept {
		if err = saveCut(f, c.Kept, c.Size); err == nil {
			err = f.Truncate(c.Kept)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.f, s.size = f, c.Kept
	s.w = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// saveCut writes the bytes [from, to) of f to the new file
// <f>.cut-<from>, or <f>.cut-<from>.<n> if that name is taken, and fsyncs
// it.
func saveCut(f *os.File, from, to int64) error {
	name := fmt.Sprintf("%s.cut-%d", f.Name(), from)
	side, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	for n := 1; os.IsExist(err); n++ {
		side, err = os.OpenFile(fmt.Sprintf("%s.%d", name, n), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	}
	if err != nil {
		return err
	}
	_, err = io.Copy(side, io.NewSectionReader(f, from, to-from))
	if err == nil {
		err = side.Sync()
	}
	if cerr := side.Close(); err == nil {
		err = cerr
	}
	return err
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

// errPartialGroup refuses an append to a rolling store that does not end
// at a group boundary.
var errPartialGroup = errors.New("logstore: append does not end at a group boundary")

// Append implements Store. On a rolling store p must be whole groups
// (wal.WalkGroups): otherwise nothing of it is written and Append returns
// an error.
func (s *Segmented) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	serial, err := s.walk(p)
	if err != nil {
		return err
	}
	if err := s.writeLocked(p); err != nil {
		return err
	}
	return s.maybeRollLocked(serial)
}

// AppendBatch implements Store: the whole cohort lands under one lock,
// and the roll check runs once at the end. On a rolling store each chunk
// must be whole groups, or nothing of the batch is written.
func (s *Segmented) AppendBatch(chunks [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var serial uint64
	for _, p := range chunks {
		top, err := s.walk(p)
		if err != nil {
			return err
		}
		serial = max(serial, top)
	}
	for _, p := range chunks {
		if err := s.writeLocked(p); err != nil {
			return err
		}
	}
	return s.maybeRollLocked(serial)
}

// walk checks that p is whole groups on a rolling store and returns its
// largest commit serial. A single-file store never rolls, so it checks
// nothing.
func (s *Segmented) walk(p []byte) (uint64, error) {
	if s.segBytes == 0 {
		return 0, nil
	}
	serial, whole := wal.WalkGroups(p)
	if !whole {
		return 0, errPartialGroup
	}
	return serial, nil
}

func (s *Segmented) writeLocked(p []byte) error {
	n, err := s.w.Write(p)
	s.size += int64(n)
	s.bytesAppended.Add(uint64(n))
	return err
}

// maybeRollLocked records serial, the largest commit serial just
// appended, and seals the active segment once it crosses the size
// threshold. Every append ends at a group boundary, so the roll does too.
func (s *Segmented) maybeRollLocked(serial uint64) error {
	s.maxSerial = max(s.maxSerial, serial)
	if s.segBytes == 0 || s.size < s.segBytes {
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
		Name: oldName, Bytes: oldSize, MaxSerial: s.maxSerial, Sealed: true,
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

// Stats implements Store. The counters are atomics, so Stats never
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

// TruncateBelow implements Store: it unlinks the longest
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
