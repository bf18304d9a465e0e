// Package wal is a stub of the engine's WAL writer API: the
// durability pass matches its package-level writers by package name
// and function name, so this fixture only needs the signatures.
package wal

import "io"

type Record struct {
	Type  int
	TxnID uint64
}

func Encode(w io.Writer, r *Record) error { _ = w; _ = r; return nil }

func WriteCheckpointTrailer(w io.Writer, marks []uint64) error { _ = w; _ = marks; return nil }
