package service

import "math"

// The request tokenizer: a zero-allocation replacement for the old
// Scanner.Text() + strings.Fields front end. A request line is copied
// once into the pooled request's own buffer and split in place; the
// command word is matched case-insensitively against the fixed command
// set without building a string, and argument tokens stay byte slices
// into that buffer until the moment a handler actually needs a string.
// Steady state, parsing a GET/TRANSLATE/BALANCE line performs zero heap
// allocations (see BenchmarkTokenize).

// command identifies one protocol verb.
type command uint8

const (
	cmdUnknown command = iota
	cmdDeadline
	cmdClass
	cmdGet
	cmdSet
	cmdDel
	cmdTranslate
	cmdReroute
	cmdBalance
	cmdCharge
	cmdTopup
	cmdStats
	cmdQuit
	commandCount
)

// maxArgs is the largest argument count any command takes; tokens past
// it are counted (for usage errors) but not retained.
const maxArgs = 3

// cmdName is the canonical (upper-case) verb, used in usage errors.
var cmdName = [commandCount]string{
	cmdUnknown:   "?",
	cmdDeadline:  "DEADLINE",
	cmdClass:     "CLASS",
	cmdGet:       "GET",
	cmdSet:       "SET",
	cmdDel:       "DEL",
	cmdTranslate: "TRANSLATE",
	cmdReroute:   "REROUTE",
	cmdBalance:   "BALANCE",
	cmdCharge:    "CHARGE",
	cmdTopup:     "TOPUP",
	cmdStats:     "STATS",
	cmdQuit:      "QUIT",
}

// cmdArgc is the exact argument count each command requires; -1 means
// arguments are ignored (STATS and QUIT historically accept anything).
var cmdArgc = [commandCount]int{
	cmdUnknown:   -1,
	cmdDeadline:  1,
	cmdClass:     1,
	cmdGet:       1,
	cmdSet:       2,
	cmdDel:       1,
	cmdTranslate: 1,
	cmdReroute:   2,
	cmdBalance:   1,
	cmdCharge:    2,
	cmdTopup:     2,
	cmdStats:     -1,
	cmdQuit:      -1,
}

// cmdUsage is the usage string answered on an argument-count mismatch.
var cmdUsage = [commandCount]string{
	cmdDeadline:  "DEADLINE <ms>",
	cmdClass:     "CLASS firm|soft|nonrt",
	cmdGet:       "GET <id>",
	cmdSet:       "SET <id> <value>",
	cmdDel:       "DEL <id>",
	cmdTranslate: "TRANSLATE <number>",
	cmdReroute:   "REROUTE <number> <dest>",
	cmdBalance:   "BALANCE <subscriber>",
	cmdCharge:    "CHARGE <subscriber> <cents>",
	cmdTopup:     "TOPUP <subscriber> <cents>",
}

// isSessionCmd reports whether cmd acts on the connection's session
// (DEADLINE, CLASS, QUIT) rather than submitting a transaction.
func isSessionCmd(c command) bool {
	return c == cmdDeadline || c == cmdClass || c == cmdQuit
}

// isWriteCmd reports whether cmd runs an update transaction: its reply
// waits for its commit, and a buffered run of them shares one cohort
// (DESIGN.md §8).
func isWriteCmd(c command) bool {
	switch c {
	case cmdSet, cmdDel, cmdReroute, cmdCharge, cmdTopup:
		return true
	}
	return false
}

// isTxnCmd reports whether cmd submits a transaction to the engine (and
// is therefore subject to socket admission).
func isTxnCmd(c command) bool {
	switch c {
	case cmdGet, cmdSet, cmdDel, cmdTranslate, cmdReroute, cmdBalance, cmdCharge, cmdTopup:
		return true
	}
	return false
}

func isFieldSep(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// nextToken skips leading separators and returns the first token of b
// and the remainder after it.
func nextToken(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && isFieldSep(b[i]) {
		i++
	}
	j := i
	for j < len(b) && !isFieldSep(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

// eqFold reports whether tok equals upper under ASCII case folding.
// upper must be an upper-case ASCII string.
func eqFold(tok []byte, upper string) bool {
	if len(tok) != len(upper) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// matchCommand maps a verb token to its command, case-insensitively,
// without allocating.
func matchCommand(tok []byte) command {
	if len(tok) == 0 {
		return cmdUnknown
	}
	c0 := tok[0]
	if 'a' <= c0 && c0 <= 'z' {
		c0 -= 'a' - 'A'
	}
	switch c0 {
	case 'B':
		if eqFold(tok, "BALANCE") {
			return cmdBalance
		}
	case 'C':
		if eqFold(tok, "CLASS") {
			return cmdClass
		}
		if eqFold(tok, "CHARGE") {
			return cmdCharge
		}
	case 'D':
		if eqFold(tok, "DEL") {
			return cmdDel
		}
		if eqFold(tok, "DEADLINE") {
			return cmdDeadline
		}
	case 'G':
		if eqFold(tok, "GET") {
			return cmdGet
		}
	case 'Q':
		if eqFold(tok, "QUIT") {
			return cmdQuit
		}
	case 'R':
		if eqFold(tok, "REROUTE") {
			return cmdReroute
		}
	case 'S':
		if eqFold(tok, "SET") {
			return cmdSet
		}
		if eqFold(tok, "STATS") {
			return cmdStats
		}
	case 'T':
		if eqFold(tok, "TRANSLATE") {
			return cmdTranslate
		}
		if eqFold(tok, "TOPUP") {
			return cmdTopup
		}
	}
	return cmdUnknown
}

// tokenize parses one request line (already copied into req.buf, no
// trailing newline) into req.cmd, req.cmdTok, req.args and req.nargs.
// It reports false for a blank line. It never allocates: every token is
// a sub-slice of req.buf.
func (req *request) tokenize() bool {
	b := req.buf
	tok, rest := nextToken(b)
	if len(tok) == 0 {
		return false
	}
	req.cmd = matchCommand(tok)
	req.cmdTok = tok
	req.nargs = 0
	for {
		tok, rest = nextToken(rest)
		if len(tok) == 0 {
			return true
		}
		if req.nargs < maxArgs {
			req.args[req.nargs] = tok
		}
		req.nargs++
	}
}

// parseUintBytes is strconv.ParseUint(string(b), 10, 64) without the
// string: digits only, no sign, overflow rejected.
func parseUintBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseIntBytes is strconv.ParseInt(string(b), 10, 64) without the
// string. The single value it rejects that strconv accepts is
// math.MinInt64, which no protocol field comes near.
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}
