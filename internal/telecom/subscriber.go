package telecom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
)

// Subscriber is the profile stored per subscriber id: the second kind of
// data a number-translation service keeps besides routing entries.
type Subscriber struct {
	// MSISDN is the subscriber's own E.164 number.
	MSISDN string
	// Name is the subscriber's display name.
	Name string
	// BalanceCents is the account balance; a postpaid one may be negative.
	BalanceCents int64
	// Prepaid reports a prepaid account, whose balance never goes below 0.
	Prepaid bool
	// CreditLimitCents is how far below 0 a postpaid balance may run.
	CreditLimitCents int64
}

// ErrBadSubscriber reports an undecodable subscriber profile.
var ErrBadSubscriber = errors.New("telecom: bad subscriber profile")

// subscriberHeader is the fixed part of an encoded profile: balance,
// credit limit, prepaid byte and the MSISDN's length.
const subscriberHeader = 8 + 8 + 1 + 4

// Encode serializes s: the fixed little-endian fields, then the MSISDN
// and the name, with the MSISDN's length in the header.
func (s *Subscriber) Encode() []byte {
	buf := make([]byte, subscriberHeader, subscriberHeader+len(s.MSISDN)+len(s.Name))
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.BalanceCents))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.CreditLimitCents))
	if s.Prepaid {
		buf[16] = 1
	}
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(s.MSISDN)))
	buf = append(buf, s.MSISDN...)
	return append(buf, s.Name...)
}

// DecodeSubscriber parses a subscriber profile. It refuses input shorter
// than the header, an MSISDN length past the end, and a prepaid byte other
// than 0 or 1: SET can overwrite a subscriber id with any bytes, so the
// billing commands decode input from outside the program.
func DecodeSubscriber(b []byte) (*Subscriber, error) {
	if len(b) < subscriberHeader || b[16] > 1 {
		return nil, ErrBadSubscriber
	}
	n := binary.LittleEndian.Uint32(b[17:])
	if uint64(n) > uint64(len(b)-subscriberHeader) {
		return nil, ErrBadSubscriber
	}
	rest := b[subscriberHeader:]
	return &Subscriber{
		MSISDN:           string(rest[:n]),
		Name:             string(rest[n:]),
		BalanceCents:     int64(binary.LittleEndian.Uint64(b[0:])),
		Prepaid:          b[16] == 1,
		CreditLimitCents: int64(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}

// SubscriberIDBase offsets subscriber objects away from routing entries
// in the flat id space (routing entries live at the number's value).
const SubscriberIDBase store.ObjectID = 1 << 40

// SubscriberID maps a subscriber index to its object id.
func SubscriberID(i int) store.ObjectID { return SubscriberIDBase + store.ObjectID(i) }

// NewSubscriber builds a subscriber profile with no credit limit.
func NewSubscriber(msisdn, name string, prepaid bool, balanceCents int64) *Subscriber {
	return &Subscriber{MSISDN: msisdn, Name: name, Prepaid: prepaid, BalanceCents: balanceCents}
}

// Charge debits a call charge from a subscriber profile encoding and
// returns the updated encoding — the read-modify-write body of a billing
// transaction. Prepaid subscribers cannot go below zero; postpaid ones
// may run to their credit limit (a negative balance).
func Charge(encoded []byte, cents int64) ([]byte, error) {
	if cents < 0 {
		return nil, fmt.Errorf("telecom: negative charge %d", cents)
	}
	return adjust(encoded, -cents)
}

// TopUp credits a subscriber profile encoding.
func TopUp(encoded []byte, cents int64) ([]byte, error) {
	if cents < 0 {
		return nil, fmt.Errorf("telecom: negative top-up %d", cents)
	}
	return adjust(encoded, cents)
}

// adjust adds delta to the balance of the profile encoding and returns
// the updated encoding. It refuses a balance past the int64 range, a
// prepaid one below 0 and a postpaid one below −CreditLimitCents (no
// balance is above −math.MinInt64, so such a limit refuses every one).
func adjust(encoded []byte, delta int64) ([]byte, error) {
	s, err := DecodeSubscriber(encoded)
	if err != nil {
		return nil, err
	}
	next := s.BalanceCents + delta
	switch {
	case (delta > 0) != (next > s.BalanceCents):
		return nil, fmt.Errorf("telecom: balance %d %+d overflows", s.BalanceCents, delta)
	case s.Prepaid && next < 0:
		return nil, fmt.Errorf("telecom: insufficient prepaid balance (%d %+d < 0)", s.BalanceCents, delta)
	case !s.Prepaid && (s.CreditLimitCents == math.MinInt64 || next < -s.CreditLimitCents):
		return nil, fmt.Errorf("telecom: credit limit exceeded (%d %+d < -%d)", s.BalanceCents, delta, s.CreditLimitCents)
	}
	s.BalanceCents = next
	return s.Encode(), nil
}
