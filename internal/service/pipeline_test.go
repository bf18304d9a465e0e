package service

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	rodain "repro"
	"repro/internal/telecom"
)

// newTestDB opens a DB with a deterministic population: telecom entries
// at ids 0..49, raw values "v50".."v69" at ids 50..69, and five prepaid
// subscribers.
func newTestDB(tb testing.TB, opts rodain.Options) *rodain.DB {
	tb.Helper()
	db, err := rodain.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	populate(tb, db)
	return db
}

// populate loads newTestDB's population into db.
func populate(tb testing.TB, db *rodain.DB) {
	tb.Helper()
	if err := db.Populate(75, func(i int) (rodain.ObjectID, []byte) {
		switch {
		case i < 50:
			return telecom.RouteEntry(i)
		case i < 70:
			return rodain.ObjectID(i), []byte(fmt.Sprintf("v%d", i))
		default:
			return telecom.SubscriberID(i - 70), telecom.NewSubscriber("+3585", "A", true, 100000).Encode()
		}
	}); err != nil {
		tb.Fatal(err)
	}
}

func startPipeServer(tb testing.TB, cfg Config, opts rodain.Options) (string, *Server, *rodain.DB) {
	tb.Helper()
	db := newTestDB(tb, opts)
	srv := NewServerConfig(db, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr, srv, db
}

// genScript produces a random but deterministic-outcome command script:
// no STATS (timing-dependent output), no QUIT (hangs up), no blank
// lines (produce no response). Values written are sequence-numbered so
// any serial execution yields one canonical transcript.
func genScript(rng *rand.Rand, n int) []string {
	script := []string{"DEADLINE 10000"}
	classes := []string{"firm", "soft", "nonrt"}
	garbage := []string{"FROB 1", "GET", "SET 1", "CHARGE 0 x", "BALANCE -1", "get xyz zz qq"}
	val := 0
	for len(script) < n {
		switch rng.Intn(12) {
		case 0:
			script = append(script, fmt.Sprintf("GET %d", rng.Intn(80))) // 70..79 missing
		case 1:
			val++
			script = append(script, fmt.Sprintf("SET %d %q", 50+rng.Intn(20), fmt.Sprintf("w%d", val)))
		case 2:
			script = append(script, fmt.Sprintf("DEL %d", 50+rng.Intn(25))) // may be gone already
		case 3:
			script = append(script, fmt.Sprintf("TRANSLATE %d", rng.Intn(50)))
		case 4:
			script = append(script, fmt.Sprintf("REROUTE %d +35840%d", rng.Intn(50), rng.Intn(1000)))
		case 5:
			script = append(script, fmt.Sprintf("BALANCE %d", rng.Intn(6))) // 5 missing
		case 6:
			script = append(script, fmt.Sprintf("CHARGE %d %d", rng.Intn(5), 1+rng.Intn(50)))
		case 7:
			script = append(script, fmt.Sprintf("TOPUP %d %d", rng.Intn(5), 1+rng.Intn(50)))
		case 8:
			script = append(script, "CLASS "+classes[rng.Intn(len(classes))])
		case 9:
			script = append(script, fmt.Sprintf("DEADLINE %d", 2000+rng.Intn(8000)))
		case 10:
			script = append(script, garbage[rng.Intn(len(garbage))])
		case 11:
			val++
			script = append(script, fmt.Sprintf("SET %d w%d", 50+rng.Intn(20), val)) // bare word
		}
	}
	return script
}

// runScript executes script against a fresh identically-populated DB
// opened with opts, through a server with the given pipeline window,
// using a client keeping clientDepth requests in flight, and returns the
// transcript and the STATS line read after it.
func runScript(t *testing.T, opts rodain.Options, script []string, serverDepth, clientDepth int) ([]string, string) {
	t.Helper()
	db := newTestDB(t, opts)
	defer db.Close()
	srv := NewServerConfig(db, Config{PipelineDepth: serverDepth})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps, err := c.Pipeline(script, clientDepth)
	if err != nil {
		t.Fatalf("pipeline (server depth %d, client depth %d): %v", serverDepth, clientDepth, err)
	}
	stats, err := c.Do("STATS")
	if err != nil {
		t.Fatal(err)
	}
	return resps, stats
}

// TestPipelineSerialEquivalence is the property test for the pipelined
// front end: for random scripts (dependent writes, session commands,
// parse errors included) the transcript at a random pipeline depth is
// byte-identical to the serial depth-1 transcript. The durable arm runs
// on a node that syncs a (slow) disk log before a commit is stable, so
// updates really overlap in their log wait; on an update-only script its
// reply ring must then hold more than one reply at a time, which it
// cannot while updates are barriers until durable.
func TestPipelineSerialEquivalence(t *testing.T) {
	arms := []struct {
		name string
		opts rodain.Options
	}{
		{"volatile", rodain.Options{Durability: rodain.DurNone, Workers: 4}},
		{"durable", rodain.Options{Durability: rodain.DurDisk, SimulatedDiskLatency: 200 * time.Microsecond, Workers: 4}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				script := genScript(rng, 120)
				serverDepth := 2 + rng.Intn(15)
				clientDepth := 2 + rng.Intn(15)

				serial, _ := runScript(t, arm.opts, script, 1, 1)
				piped, _ := runScript(t, arm.opts, script, serverDepth, clientDepth)
				compareTranscripts(t, fmt.Sprintf("seed %d (depth %d/%d)", seed, serverDepth, clientDepth), script, serial, piped)
			}
		})
	}

	t.Run("durable-updates-overlap", func(t *testing.T) {
		opts := rodain.Options{Durability: rodain.DurDisk, SimulatedDiskLatency: time.Millisecond, Workers: 4}
		script := []string{"DEADLINE 10000"}
		for i := 0; i < 120; i++ {
			script = append(script, fmt.Sprintf("REROUTE %d +35840%d", i%50, i))
		}
		serial, _ := runScript(t, opts, script, 1, 1)
		piped, stats := runScript(t, opts, script, 16, 8)
		compareTranscripts(t, "update-only", script, serial, piped)
		m := regexp.MustCompile(`pdepth=([0-9.]+)/`).FindStringSubmatch(stats)
		if m == nil {
			t.Fatalf("no pdepth in STATS: %q", stats)
		}
		if depth, _ := strconv.ParseFloat(m[1], 64); depth < 2 {
			t.Fatalf("pdepth mean %.1f on pipelined updates over a 1 ms log: updates are still barriers until durable (%s)", depth, stats)
		}
	})
}

func compareTranscripts(t *testing.T, what string, script, serial, piped []string) {
	t.Helper()
	if len(serial) != len(piped) {
		t.Fatalf("%s: %d serial responses vs %d pipelined", what, len(serial), len(piped))
	}
	for i := range serial {
		if serial[i] != piped[i] {
			t.Errorf("%s, line %d %q:\n  serial:    %q\n  pipelined: %q",
				what, i, script[i], serial[i], piped[i])
		}
	}
}

// TestPipelineOrderedResponses checks that overlapping read-only
// requests still answer strictly in request order.
func TestPipelineOrderedResponses(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{PipelineDepth: 16},
		rodain.Options{Durability: rodain.DurNone, Workers: 4})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("GET %d", 50+i%20)
	}
	resps, err := c.Pipeline(lines, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		want := fmt.Sprintf("OK %q", fmt.Sprintf("v%d", 50+i%20))
		if resp != want {
			t.Fatalf("response %d = %q, want %q", i, resp, want)
		}
	}
}

// TestPipelineBarrierSemantics pins the exact transcript around session
// commands, updates and parse errors inside one pipelined batch: each
// request sees the session and the writes of every request before it.
func TestPipelineBarrierSemantics(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{PipelineDepth: 8},
		rodain.Options{Durability: rodain.DurNone, Workers: 4})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	steps := []struct{ line, want string }{
		{`SET 50 "x1"`, "OK"},
		{"GET 50", `OK "x1"`}, // read-your-writes within the batch
		{"CLASS soft", "OK"},
		{"GET 50", `OK "x1"`},
		{"DEADLINE 5000", "OK"},
		{"CLASS bogus", "ERR unknown class bogus"},
		{"FROB 1", "ERR unknown command FROB"},
		{"GET", "ERR usage: GET <id>"},
		{"GET 1 2", "ERR usage: GET <id>"},
		{"GET 50", `OK "x1"`},
		{"QUIT now", "OK bye"}, // arguments ignored, as they always were
	}
	lines := make([]string, len(steps))
	for i, s := range steps {
		lines[i] = s.line
	}
	resps, err := c.Pipeline(lines, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		if resps[i] != s.want {
			t.Errorf("%q: got %q, want %q", s.line, resps[i], s.want)
		}
	}
}

// TestPipelineQuitDrains checks that QUIT answers last: every pipelined
// request written before it is answered before "OK bye", and nothing
// after.
func TestPipelineQuitDrains(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{PipelineDepth: 32},
		rodain.Options{Durability: rodain.DurNone, Workers: 4})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var batch strings.Builder
	const n = 30
	for i := 0; i < n; i++ {
		batch.WriteString("GET 50\n")
	}
	batch.WriteString("QUIT\n")
	if _, err := conn.Write([]byte(batch.String())); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			t.Fatalf("response %d: %v", i, sc.Err())
		}
		if got := sc.Text(); got != `OK "v50"` {
			t.Fatalf("response %d = %q", i, got)
		}
	}
	if !sc.Scan() || sc.Text() != "OK bye" {
		t.Fatalf("QUIT response: %q (%v)", sc.Text(), sc.Err())
	}
	if sc.Scan() {
		t.Fatalf("data after QUIT: %q", sc.Text())
	}
}

// TestBlankLinesSkipped: blank lines produce no response (unchanged
// from the scanner front end).
func TestBlankLinesSkipped(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{}, rodain.Options{Durability: rodain.DurNone, Workers: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("\n   \n\t\r\nGET 50\n")); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal(sc.Err())
	}
	if got := sc.Text(); got != `OK "v50"` {
		t.Fatalf("got %q", got)
	}
}

// TestLongLines: a line longer than the 64 KiB read buffer takes the
// slow accumulation path and still works; a line over the 1 MiB bound,
// by one byte or by far, hangs up the connection.
func TestLongLines(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{}, rodain.Options{Durability: rodain.DurNone, Workers: 2})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("a", 100_000)
	if resp, err := c.Do(fmt.Sprintf("SET 50 %q", big)); err != nil || resp != "OK" {
		t.Fatalf("long SET: %q %v", resp, err)
	}
	if resp, err := c.Do("GET 50"); err != nil || resp != fmt.Sprintf("OK %q", big) {
		t.Fatalf("long GET: %d bytes, %v", len(resp), err)
	}

	for _, n := range []int{maxLineBytes + 1, maxLineBytes + 1<<17} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		huge := []byte(strings.Repeat("a", n) + "\n")
		if _, err := conn.Write(huge); err == nil {
			if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
				t.Fatalf("%d-byte line was answered instead of hanging up", n)
			}
		}
	}
}

// TestSocketAdmission checks admission control at the socket: while the
// overload manager is at its limit, an arriving transactional request
// is answered MISS overload from the reader without queueing.
func TestSocketAdmission(t *testing.T) {
	addr, _, db := startPipeServer(t, Config{},
		rodain.Options{Durability: rodain.DurNone, Workers: 2, MaxActive: 1})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Update(5*time.Second, func(tx *rodain.Tx) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started

	resp, err := c.Do("GET 50")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "MISS overload" {
		t.Fatalf("at admission limit: %q, want MISS overload", resp)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slot-holding update: %v", err)
	}
	resp, err = c.Do("GET 50")
	if err != nil {
		t.Fatal(err)
	}
	if resp != `OK "v50"` {
		t.Fatalf("after release: %q", resp)
	}

	stats, err := c.Do("STATS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "sockmiss=1") {
		t.Fatalf("STATS should count the socket miss: %q", stats)
	}
}

// TestListenAfterClose: a closed server refuses new listeners instead
// of silently accepting on a dead server.
func TestListenAfterClose(t *testing.T) {
	db := newTestDB(t, rodain.Options{Durability: rodain.DurNone, Workers: 2})
	defer db.Close()

	srv := NewServer(db)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen succeeded on a closed server")
	}

	// A server closed before it ever listened behaves the same, and
	// Close stays idempotent.
	srv2 := NewServer(db)
	srv2.Close()
	if _, err := srv2.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen succeeded on a never-listened closed server")
	}
	srv2.Close()
}

// TestServerStartsNoWorkers: Listen starts one goroutine, its accept
// loop, and a connection needs nothing but serve: every request,
// read-only ones included, runs on the connection's own reader.
func TestServerStartsNoWorkers(t *testing.T) {
	db := newTestDB(t, rodain.Options{Durability: rodain.DurNone, Workers: 2})
	srv := NewServer(db)
	// Let goroutines earlier tests left behind finish first.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	grew := runtime.NumGoroutine() - before
	srv.Close()
	if grew != 1 {
		t.Errorf("Listen started %d goroutines, want 1: the accept loop", grew)
	}

	conn, r := pipeClient(t, db, Config{})
	go conn.Write([]byte("GET 50\nTRANSLATE 1\nBALANCE 0\nSTATS\n"))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, want := range []string{"OK \"v50\"\n", "OK +358500000001 v1\n", "OK 100000 prepaid\n", "OK mode="} {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("waiting for %q: %v", want, err)
		}
		if !strings.HasPrefix(line, want) {
			t.Fatalf("reply %q, want %q", line, want)
		}
	}
}

// TestIdleTimeout: a connection that goes quiet past the idle deadline
// is disconnected; an active one is not.
func TestIdleTimeout(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{IdleTimeout: 150 * time.Millisecond},
		rodain.Options{Durability: rodain.DurNone, Workers: 2})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Stays alive while requests keep arriving inside the window.
	for i := 0; i < 3; i++ {
		if resp, err := c.Do("GET 50"); err != nil || resp != `OK "v50"` {
			t.Fatalf("active connection request %d: %q %v", i, resp, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Goes quiet: the server hangs up.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection not disconnected")
	}
}
