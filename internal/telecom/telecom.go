// Package telecom implements the number-translation service schema the
// paper's test database represents: intelligent-network (IN) numbers
// (e.g. freephone 0800 numbers) mapped to routing entries that resolve
// to a physical subscriber number, possibly time-of-day dependent.
//
// The schema is deliberately simple — it is the workload the RODAIN
// prototype served, not a full IN service layer — but it gives the
// examples and integration tests realistic keys, values and operations:
// Translate (read-only service provision) and UpdateRouting (update
// service provision).
package telecom

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/store"
)

// Entry is the routing record stored per service number.
type Entry struct {
	// Routed is the physical E.164 number calls are forwarded to.
	Routed string
	// Weight supports load-shared routing among destinations.
	Weight uint8
	// Active reports whether the service number is in service.
	Active bool
	// Version counts updates, so tests can check read-your-writes and
	// replica convergence.
	Version uint32
}

// ErrBadEntry reports an undecodable routing record.
var ErrBadEntry = errors.New("telecom: bad routing entry")

// Encode serializes e.
func Encode(e *Entry) []byte {
	buf := make([]byte, 0, 8+len(e.Routed))
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:], e.Version)
	hdr[4] = e.Weight
	if e.Active {
		hdr[5] = 1
	}
	buf = append(buf, hdr[:]...)
	return append(buf, e.Routed...)
}

// Decode parses a routing record.
func Decode(b []byte) (*Entry, error) {
	if len(b) < 6 {
		return nil, ErrBadEntry
	}
	return &Entry{
		Version: binary.LittleEndian.Uint32(b[0:]),
		Weight:  b[4],
		Active:  b[5] == 1,
		Routed:  string(b[6:]),
	}, nil
}

// NumberToID maps a service number (digits only) to an object id: the
// database is keyed directly by the number's integer value.
func NumberToID(number string) (store.ObjectID, error) {
	if number == "" {
		return 0, fmt.Errorf("telecom: empty number")
	}
	var v uint64
	for _, d := range number {
		if d < '0' || d > '9' {
			return 0, fmt.Errorf("telecom: non-digit %q in number %q", d, number)
		}
		v = v*10 + uint64(d-'0')
	}
	return store.ObjectID(v), nil
}

// IDToNumber renders an object id as the dialed service number with the
// 0800 service prefix.
func IDToNumber(id store.ObjectID) string {
	return fmt.Sprintf("0800%06d", uint64(id)%1000000)
}

// RouteEntry is entry i of the number-translation table: service number
// i routed to subscriber number +35850 followed by i in seven digits. It
// is the entry function a node's Populate takes.
func RouteEntry(i int) (store.ObjectID, []byte) {
	return store.ObjectID(i), Encode(&Entry{
		Routed:  fmt.Sprintf("+35850%07d", i),
		Weight:  100,
		Active:  true,
		Version: 1,
	})
}

// Translate resolves a service number to its routing destination — the
// read-only service-provision operation. It is a plain helper over any
// read function, so it works against a transaction, a store, or a remote
// client.
func Translate(read func(store.ObjectID) ([]byte, bool), id store.ObjectID) (*Entry, error) {
	b, ok := read(id)
	if !ok {
		return nil, fmt.Errorf("telecom: number %s not provisioned", IDToNumber(id))
	}
	e, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if !e.Active {
		return nil, fmt.Errorf("telecom: number %s out of service", IDToNumber(id))
	}
	return e, nil
}

// Reroute builds the updated routing record for an update
// service-provision transaction: same number, new destination, bumped
// version.
func Reroute(old *Entry, newDest string) *Entry {
	return &Entry{
		Routed:  newDest,
		Weight:  old.Weight,
		Active:  old.Active,
		Version: old.Version + 1,
	}
}
