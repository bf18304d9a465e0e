package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	rodain "repro"
	"repro/internal/telecom"
)

func startServer(t *testing.T) (*Server, *Client, *rodain.DB) {
	t.Helper()
	db, err := rodain.Open(rodain.Options{Durability: rodain.DurNone, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Populate(100, telecom.RouteEntry); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		db.Close()
	})
	return srv, c, db
}

// provisionSubscriber populates subscriber 0: prepaid, 1000 cents.
func provisionSubscriber(t *testing.T, db *rodain.DB) {
	t.Helper()
	if err := db.Populate(1, func(int) (rodain.ObjectID, []byte) {
		return telecom.SubscriberID(0), telecom.NewSubscriber("+3585", "A", true, 1000).Encode()
	}); err != nil {
		t.Fatal(err)
	}
}

func do(t *testing.T, c *Client, line string) string {
	t.Helper()
	resp, err := c.Do(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return resp
}

func TestGetSet(t *testing.T) {
	_, c, _ := startServer(t)
	if resp := do(t, c, `SET 5 "hello"`); resp != "OK" {
		t.Fatalf("SET: %q", resp)
	}
	resp := do(t, c, "GET 5")
	if resp != `OK "hello"` {
		t.Fatalf("GET: %q", resp)
	}
}

func TestTranslateAndReroute(t *testing.T) {
	_, c, _ := startServer(t)
	resp := do(t, c, "TRANSLATE 42")
	if !OK(resp) || !strings.Contains(resp, "+358500000042 v1") {
		t.Fatalf("TRANSLATE: %q", resp)
	}
	if resp := do(t, c, "REROUTE 42 +358409999999"); resp != "OK" {
		t.Fatalf("REROUTE: %q", resp)
	}
	resp = do(t, c, "TRANSLATE 42")
	if !strings.Contains(resp, "+358409999999 v2") {
		t.Fatalf("after reroute: %q", resp)
	}
}

func TestDeadlineCommand(t *testing.T) {
	_, c, _ := startServer(t)
	if resp := do(t, c, "DEADLINE 200"); resp != "OK" {
		t.Fatalf("DEADLINE: %q", resp)
	}
	for _, bad := range []string{"DEADLINE", "DEADLINE x", "DEADLINE -1"} {
		if resp := do(t, c, bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q accepted: %q", bad, resp)
		}
	}
}

func TestErrors(t *testing.T) {
	_, c, _ := startServer(t)
	cases := []string{
		"GET", "GET x", "GET 9999",
		"SET", "SET x v",
		"TRANSLATE", "TRANSLATE 80o0",
		"REROUTE 1", "REROUTE x y",
		"FROB 1",
	}
	for _, line := range cases {
		resp := do(t, c, line)
		if OK(resp) {
			t.Fatalf("%q unexpectedly ok: %q", line, resp)
		}
	}
}

func TestStats(t *testing.T) {
	_, c, _ := startServer(t)
	do(t, c, "GET 1")
	resp := do(t, c, "STATS")
	if !OK(resp) || !strings.Contains(resp, "committed=") {
		t.Fatalf("STATS: %q", resp)
	}
}

func TestQuit(t *testing.T) {
	_, c, _ := startServer(t)
	resp := do(t, c, "QUIT")
	if !OK(resp) {
		t.Fatalf("QUIT: %q", resp)
	}
	if _, err := c.Do("GET 1"); err == nil {
		t.Fatal("connection still alive after QUIT")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, _ := startServer(t)
	addr := srv.listeners[0].Addr().String()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				resp, err := c.Do("GET 7")
				if err != nil || !OK(resp) {
					t.Errorf("client %d: %q %v", g, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Pipelined: 4 connections × depth 8 of mixed REROUTE/TRANSLATE.
	// Connection c owns ids ≡ c mod 4, so every TRANSLATE must read the
	// destination its own connection's preceding REROUTE wrote.
	const conns, depth, pairs = 4, 8, 100
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			lines := []string{"DEADLINE 5000"} // headroom under -race
			dests := make([]string, pairs)
			for i := range dests {
				id := c + conns*(i%25)
				dests[i] = fmt.Sprintf("+3584%d%06d", c, i)
				lines = append(lines,
					fmt.Sprintf("REROUTE %d %s", id, dests[i]),
					fmt.Sprintf("TRANSLATE %d", id))
			}
			resps, err := cl.Pipeline(lines, depth)
			if err != nil {
				t.Errorf("conn %d: %v", c, err)
				return
			}
			for i, resp := range resps {
				if !OK(resp) {
					t.Errorf("conn %d: %q -> %q", c, lines[i], resp)
					return
				}
			}
			for i, dest := range dests {
				if got := resps[2+2*i]; !strings.Contains(got, dest+" ") {
					t.Errorf("conn %d: %q -> %q, want own write %s", c, lines[2+2*i], got, dest)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestMissClassification(t *testing.T) {
	if !Miss("MISS deadline") || Miss("OK") || Miss("ERR x") {
		t.Fatal("Miss misclassifies")
	}
	if !OK("OK v") || OK("MISS x") {
		t.Fatal("OK misclassifies")
	}
}

func TestClassCommand(t *testing.T) {
	_, c, _ := startServer(t)
	for _, class := range []string{"firm", "soft", "nonrt", "FIRM"} {
		if resp := do(t, c, "CLASS "+class); resp != "OK" {
			t.Fatalf("CLASS %s: %q", class, resp)
		}
		if resp := do(t, c, "GET 1"); !OK(resp) {
			t.Fatalf("GET under class %s: %q", class, resp)
		}
	}
	for _, bad := range []string{"CLASS", "CLASS bogus"} {
		if resp := do(t, c, bad); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q accepted: %q", bad, resp)
		}
	}
}

func TestDelCommand(t *testing.T) {
	_, c, _ := startServer(t)
	if resp := do(t, c, `SET 9 "gone-soon"`); resp != "OK" {
		t.Fatalf("SET: %q", resp)
	}
	if resp := do(t, c, "DEL 9"); resp != "OK" {
		t.Fatalf("DEL: %q", resp)
	}
	if resp := do(t, c, "GET 9"); OK(resp) {
		t.Fatalf("GET after DEL: %q", resp)
	}
	for _, bad := range []string{"DEL", "DEL x", "DEL 99999"} {
		if resp := do(t, c, bad); OK(resp) {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestBillingCommands(t *testing.T) {
	_, c, db := startServer(t)
	provisionSubscriber(t, db)

	if resp := do(t, c, "BALANCE 0"); resp != "OK 1000 prepaid" {
		t.Fatalf("BALANCE: %q", resp)
	}
	if resp := do(t, c, "CHARGE 0 300"); resp != "OK" {
		t.Fatalf("CHARGE: %q", resp)
	}
	if resp := do(t, c, "TOPUP 0 50"); resp != "OK" {
		t.Fatalf("TOPUP: %q", resp)
	}
	if resp := do(t, c, "BALANCE 0"); resp != "OK 750 prepaid" {
		t.Fatalf("BALANCE after: %q", resp)
	}
	// Overdraw is a business error, not a miss.
	resp := do(t, c, "CHARGE 0 9999")
	if OK(resp) || Miss(resp) {
		t.Fatalf("overdraw: %q", resp)
	}
	for _, bad := range []string{"CHARGE", "CHARGE x 1", "CHARGE 0 x", "CHARGE -1 5",
		"TOPUP 0", "BALANCE", "BALANCE x", "BALANCE 99999"} {
		if resp := do(t, c, bad); OK(resp) {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestTopUpRefusesOverflow: a top-up whose balance would pass the int64
// range answers ERR and leaves the balance as it was.
func TestTopUpRefusesOverflow(t *testing.T) {
	_, c, db := startServer(t)
	provisionSubscriber(t, db)
	if resp := do(t, c, "TOPUP 0 9223372036854775807"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("TOPUP past the int64 range: %q", resp)
	}
	if resp := do(t, c, "BALANCE 0"); resp != "OK 1000 prepaid" {
		t.Fatalf("BALANCE after the refused top-up: %q", resp)
	}
}
