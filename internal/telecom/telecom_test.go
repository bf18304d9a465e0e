package telecom

import (
	"bytes"
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := &Entry{Routed: "+358501234567", Weight: 42, Active: true, Version: 7}
	got, err := Decode(Encode(e))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *e {
		t.Fatalf("round trip: %+v vs %+v", got, e)
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(routed string, weight uint8, active bool, version uint32) bool {
		e := &Entry{Routed: routed, Weight: weight, Active: active, Version: version}
		got, err := Decode(Encode(e))
		return err == nil && *got == *e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode([]byte{1, 2}); err != ErrBadEntry {
		t.Fatalf("err = %v", err)
	}
}

func TestNumberToID(t *testing.T) {
	id, err := NumberToID("0800123456")
	if err != nil || id != 800123456 {
		t.Fatalf("id = %d err = %v", id, err)
	}
	if _, err := NumberToID("080o1"); err == nil {
		t.Fatal("non-digit accepted")
	}
	if _, err := NumberToID(""); err == nil {
		t.Fatal("empty number accepted")
	}
}

func TestIDToNumber(t *testing.T) {
	if got := IDToNumber(42); got != "0800000042" {
		t.Fatalf("IDToNumber = %q", got)
	}
}

func TestPopulateAndTranslate(t *testing.T) {
	db := store.New()
	for i := 0; i < 100; i++ {
		db.Put(RouteEntry(i))
	}
	if db.Len() != 100 {
		t.Fatalf("Len = %d", db.Len())
	}
	e, err := Translate(db.Get, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Routed != "+358500000007" || !e.Active || e.Version != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := Translate(db.Get, 1000); err == nil {
		t.Fatal("unprovisioned number translated")
	}
}

func TestTranslateInactive(t *testing.T) {
	db := store.New()
	db.Put(1, Encode(&Entry{Routed: "+3585", Active: false, Version: 1}))
	if _, err := Translate(db.Get, 1); err == nil {
		t.Fatal("out-of-service number translated")
	}
}

func TestTranslateCorrupt(t *testing.T) {
	db := store.New()
	db.Put(1, []byte{1})
	if _, err := Translate(db.Get, 1); err == nil {
		t.Fatal("corrupt entry translated")
	}
}

func TestReroute(t *testing.T) {
	old := &Entry{Routed: "+111", Weight: 5, Active: true, Version: 3}
	got := Reroute(old, "+222")
	if got.Routed != "+222" || got.Version != 4 || got.Weight != 5 || !got.Active {
		t.Fatalf("rerouted = %+v", got)
	}
}

func TestSubscriberChargeAndTopUp(t *testing.T) {
	enc := NewSubscriber("+358501", "Alice", true, 1000).Encode()

	charged, err := Charge(enc, 300)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSubscriber(charged)
	if err != nil {
		t.Fatal(err)
	}
	if back.BalanceCents != 700 {
		t.Fatalf("balance = %d", back.BalanceCents)
	}

	topped, err := TopUp(charged, 500)
	if err != nil {
		t.Fatal(err)
	}
	back, _ = DecodeSubscriber(topped)
	if back.BalanceCents != 1200 {
		t.Fatalf("balance after top-up = %d", back.BalanceCents)
	}
}

func TestSubscriberRoundTrip(t *testing.T) {
	for _, s := range []Subscriber{
		{},
		{MSISDN: "+358501", Name: "Alice", BalanceCents: 1000, Prepaid: true},
		{Name: "no number", BalanceCents: -5000, CreditLimitCents: 5000},
		{MSISDN: "+358502", BalanceCents: math.MinInt64, CreditLimitCents: math.MaxInt64},
	} {
		got, err := DecodeSubscriber(s.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if *got != s {
			t.Fatalf("round trip: %+v vs %+v", *got, s)
		}
	}
}

func TestDecodeSubscriberRejects(t *testing.T) {
	good := NewSubscriber("+358501", "Alice", true, 1000).Encode()
	badPrepaid := append([]byte(nil), good...)
	badPrepaid[16] = 2
	badLength := append([]byte(nil), good...)
	badLength[17] = 100
	for name, b := range map[string][]byte{
		"junk":        []byte("junk"),
		"truncated":   good[:len("+358501")-1+subscriberHeader],
		"header only": good[:subscriberHeader-1],
		"prepaid 2":   badPrepaid,
		"long msisdn": badLength,
	} {
		if _, err := DecodeSubscriber(b); err != ErrBadSubscriber {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
}

func TestPrepaidCannotOverdraw(t *testing.T) {
	enc := NewSubscriber("+358501", "Alice", true, 100).Encode()
	if _, err := Charge(enc, 101); err == nil {
		t.Fatal("prepaid overdraw allowed")
	}
	if _, err := Charge(enc, 100); err != nil {
		t.Fatalf("exact balance charge refused: %v", err)
	}
}

func TestPostpaidCreditLimit(t *testing.T) {
	s := NewSubscriber("+358501", "Bob", false, 100)
	s.CreditLimitCents = 500
	enc := s.Encode()
	if _, err := Charge(enc, 600); err != nil {
		t.Fatalf("within-limit charge refused: %v", err)
	}
	if _, err := Charge(enc, 601); err == nil {
		t.Fatal("beyond-limit charge allowed")
	}
}

func TestChargeValidation(t *testing.T) {
	enc := NewSubscriber("+1", "X", true, 100).Encode()
	if _, err := Charge(enc, -1); err == nil {
		t.Fatal("negative charge allowed")
	}
	if _, err := TopUp(enc, -1); err == nil {
		t.Fatal("negative top-up allowed")
	}
	if _, err := Charge([]byte("junk"), 1); err == nil {
		t.Fatal("junk profile charged")
	}
	if _, err := TopUp([]byte("junk"), 1); err == nil {
		t.Fatal("junk profile topped up")
	}
}

// FuzzDecodeSubscriber: the billing commands decode whatever SET stored
// under a subscriber id, so for any bytes DecodeSubscriber either refuses
// them or returns a profile whose encoding is those same bytes.
func FuzzDecodeSubscriber(f *testing.F) {
	good := NewSubscriber("+358501", "Alice", true, 1000).Encode()
	f.Add(good)
	f.Add(good[:subscriberHeader+3]) // a truncated profile
	f.Add([]byte("junk"))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSubscriber(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		back, err := DecodeSubscriber(enc)
		if err != nil || *back != *s {
			t.Fatalf("re-encoded profile decodes to %+v, %v; want %+v", back, err, s)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("profile %+v re-encodes to %x, decoded from %x", s, enc, data)
		}
	})
}

// FuzzChargeTopUp: for any profile SET could store and any amount, a
// charge or a top-up either fails or sets the balance to the exact
// result, computed without overflow, and leaves a prepaid balance at or
// above 0 and a postpaid one at or above −CreditLimitCents.
func FuzzChargeTopUp(f *testing.F) {
	f.Add(int64(1000), true, int64(0), int64(math.MaxInt64))           // top up to past MaxInt64
	f.Add(int64(0), false, int64(math.MaxInt64), int64(math.MaxInt64)) // charge to the credit limit
	f.Add(int64(math.MinInt64), false, int64(math.MinInt64), int64(1))
	f.Add(int64(100), true, int64(0), int64(100))
	f.Fuzz(func(t *testing.T, balance int64, prepaid bool, limit, cents int64) {
		enc := (&Subscriber{MSISDN: "+1", BalanceCents: balance, Prepaid: prepaid, CreditLimitCents: limit}).Encode()
		for _, op := range []struct {
			name string
			fn   func([]byte, int64) ([]byte, error)
			sign int64
		}{{"Charge", Charge, -1}, {"TopUp", TopUp, 1}} {
			out, err := op.fn(enc, cents)
			if err != nil {
				continue
			}
			s, err := DecodeSubscriber(out)
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			want := new(big.Int).Mul(big.NewInt(cents), big.NewInt(op.sign))
			want.Add(want, big.NewInt(balance))
			floor := big.NewInt(0)
			if !prepaid {
				floor.Neg(big.NewInt(limit))
			}
			if want.Cmp(big.NewInt(s.BalanceCents)) != 0 || want.Cmp(floor) < 0 {
				t.Fatalf("%s(%d) on %d (prepaid %v, limit %d): balance %d, want %v and at least %v",
					op.name, cents, balance, prepaid, limit, s.BalanceCents, want, floor)
			}
		}
	})
}
