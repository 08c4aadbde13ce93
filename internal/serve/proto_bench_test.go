package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"backfi/internal/core"
)

// Benchmark fixtures: a representative decode request and its decode
// response, the frames that dominate a serving run.
func benchRequest() Request {
	return Request{Op: OpDecode, Session: "bench-session-007", Payload: bytes.Repeat([]byte{0x5A}, 24)}
}

func benchResponse() Response {
	return Response{OK: true, Code: CodeOK, Session: "bench-session-007", Seq: 1234,
		Delivered: true, PayloadOK: true, Attempts: 1, SNRdB: 19.75}
}

func BenchmarkEncodeRequest(b *testing.B) {
	req := benchRequest()
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		dst := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = appendRequestBinary(dst[:0], &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeRequest(b *testing.B) {
	req := benchRequest()
	jsonBody, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := appendRequestBinary(nil, &req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Request
			if err := json.Unmarshal(jsonBody, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		var out Request
		var names internTable
		if err := decodeRequestBinary(binBody, &out, &names); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decodeRequestBinary(binBody, &out, &names); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := benchResponse()
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		dst := make([]byte, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = appendResponseBinary(dst[:0], &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeResponse(b *testing.B) {
	resp := benchResponse()
	jsonBody, err := json.Marshal(&resp)
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := appendResponseBinary(nil, &resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Response
			if err := json.Unmarshal(jsonBody, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		var out Response
		var names internTable
		if err := decodeResponseBinary(binBody, &out, &names, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decodeResponseBinary(binBody, &out, &names, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeRoundTrip measures one full client→daemon→client
// decode exchange over loopback per protocol.
func BenchmarkServeRoundTrip(b *testing.B) {
	for _, proto := range []string{"json", "binary"} {
		b.Run(proto, func(b *testing.B) {
			link := core.DefaultLinkConfig(1)
			link.Seed = 11
			srv, err := NewServer(Config{Addr: "localhost:0", Link: link})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown(benchCtx(b))
			c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: proto})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := bytes.Repeat([]byte{3}, 24)
			if _, err := c.Decode("bench", payload); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode("bench", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Cleanup(cancel)
	return ctx
}
