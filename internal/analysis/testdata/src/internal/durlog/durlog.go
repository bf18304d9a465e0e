// Package durlog exercises the durability pass: ignored and discarded
// errors on a structurally recognized log device (Append/Sync), on the
// wal package-level writers (including the fuzzy-checkpoint header and
// trailer), and on the checkpoint publish path (os.File fsync,
// os.Rename), plus the checked-good paths and the //rodain:allow escape
// hatch.
package durlog

import (
	"bytes"
	"os"

	"internal/wal"
)

// Dev satisfies the log-device contract structurally: the pass needs
// no logstore import to recognize it.
type Dev struct{}

func (*Dev) Append(b []byte) error         { _ = b; return nil }
func (*Dev) AppendBatch(bs [][]byte) error { _ = bs; return nil }
func (*Dev) Sync() error                   { return nil }

func ignored(d *Dev, b []byte) {
	d.Append(b)        // want `Append error ignored`
	d.AppendBatch(nil) // want `AppendBatch error ignored`
	d.Sync()           // want `Sync error ignored`
	_ = d.Sync()       // want `Sync error discarded into _`
	go d.Sync()        // want `Sync error ignored \(go statement\)`
	defer d.Sync()     // want `Sync error ignored \(deferred\)`
}

func encodeIgnored(buf *bytes.Buffer, r *wal.Record) {
	wal.Encode(buf, r)                   // want `Encode error ignored`
	_ = wal.Encode(buf, r)               // want `Encode error discarded into _`
	wal.WriteCheckpointTrailer(buf, nil) // want `WriteCheckpointTrailer error ignored`
}

// checkpointPublish: the tmp→final rename and the file/dir fsyncs that
// make a checkpoint durable are as critical as the log writes the
// checkpoint lets us truncate.
func checkpointPublish(f *os.File, dir *os.File) {
	f.Sync()                         // want `Sync error ignored`
	defer dir.Sync()                 // want `Sync error ignored \(deferred\)`
	os.Rename("a.tmp", "a.ckpt")     // want `Rename error ignored`
	_ = os.Rename("a.tmp", "a.ckpt") // want `Rename error discarded into _`
}

func checkedPublish(f *os.File, dir *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename("a.tmp", "a.ckpt"); err != nil {
		return err
	}
	return dir.Sync()
}

func harmlessOS(f *os.File) {
	f.Close()          // Close is not on the publish path: not flagged
	os.Remove("a.tmp") // stale-tmp cleanup is best-effort: not flagged
}

func checked(d *Dev, b []byte) error {
	if err := d.Append(b); err != nil {
		return err
	}
	return d.Sync()
}

func checkedEncode(buf *bytes.Buffer, r *wal.Record) error {
	if err := wal.Encode(buf, r); err != nil {
		return err
	}
	return wal.WriteCheckpointTrailer(buf, nil)
}

func bestEffortTeardown(d *Dev) {
	//rodain:allow durability (teardown: best-effort flush, errors have nowhere to go)
	d.Sync()
}

// notADevice: Append/Sync on a type without the full contract is not a
// log write.
type counter struct{ n int }

func (c *counter) Append(b []byte) error { c.n += len(b); return nil }

func harmless(c *counter) {
	c.Append(nil) // no Sync method: not a log device, not flagged
}
