package core

import "repro/internal/wal"

// CommitterStats counts committer activity.
type CommitterStats struct {
	Commits uint64
	Syncs   uint64
	Bytes   uint64
	// Cohorts is the number of group-commit cohorts synced and MaxCohort
	// the largest one; committers without cohorts leave them zero.
	Cohorts   uint64
	MaxCohort uint64
}

// discardCommitter builds and then drops the records: "disk writing
// turned off". The group was already constructed by the engine (that is
// the overhead being measured); nothing further happens.
type discardCommitter struct{}

func (discardCommitter) Commit(*wal.Group) error { return nil }
func (discardCommitter) Close() error            { return nil }

// nullCommitter is the "No logs" baseline.
type nullCommitter struct{}

func (nullCommitter) Commit(*wal.Group) error { return nil }
func (nullCommitter) Close() error            { return nil }
