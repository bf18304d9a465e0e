package service

import "testing"

// BenchmarkTokenize measures the request tokenizer on the hot protocol
// verbs. The acceptance bar is 0 allocs/op: the line is copied into the
// pooled request's buffer and split in place.
func BenchmarkTokenize(b *testing.B) {
	cases := []struct{ name, line string }{
		{"get", "GET 12345"},
		{"translate", "TRANSLATE 0401234567"},
		{"balance", "BALANCE 17"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			req := getRequest()
			defer putRequest(req)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req.buf = append(req.buf[:0], tc.line...)
				if !req.tokenize() || req.cmd == cmdUnknown {
					b.Fatalf("tokenize failed on %q", tc.line)
				}
				if req.cmd == cmdGet {
					if _, ok := parseUintBytes(req.args[0]); !ok {
						b.Fatal("parseUintBytes failed")
					}
				}
			}
		})
	}
}
