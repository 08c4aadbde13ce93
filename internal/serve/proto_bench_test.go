package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
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

// codecPair is one codec operation a serving frame pays, with its body
// under each protocol. The Benchmark functions below run the pair as
// json and binary sub-benchmarks; TestBinaryCodecFasterThanJSON races
// them.
type codecPair struct{ json, binary func(*testing.B) }

func (p codecPair) run(b *testing.B) {
	b.Run("json", p.json)
	b.Run("binary", p.binary)
}

func encodeRequestPair() codecPair {
	req := benchRequest()
	return codecPair{
		json: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(&req); err != nil {
					b.Fatal(err)
				}
			}
		},
		binary: func(b *testing.B) {
			dst := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = appendRequestBinary(dst[:0], &req); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

func decodeRequestPair() codecPair {
	req := benchRequest()
	jsonBody, err := json.Marshal(&req)
	if err != nil {
		panic(err)
	}
	binBody, err := appendRequestBinary(nil, &req)
	if err != nil {
		panic(err)
	}
	return codecPair{
		json: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out Request
				if err := json.Unmarshal(jsonBody, &out); err != nil {
					b.Fatal(err)
				}
			}
		},
		binary: func(b *testing.B) {
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
		},
	}
}

func encodeResponsePair() codecPair {
	resp := benchResponse()
	return codecPair{
		json: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(&resp); err != nil {
					b.Fatal(err)
				}
			}
		},
		binary: func(b *testing.B) {
			dst := make([]byte, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = appendResponseBinary(dst[:0], &resp); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

func decodeResponsePair() codecPair {
	resp := benchResponse()
	jsonBody, err := json.Marshal(&resp)
	if err != nil {
		panic(err)
	}
	binBody, err := appendResponseBinary(nil, &resp)
	if err != nil {
		panic(err)
	}
	return codecPair{
		json: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out Response
				if err := json.Unmarshal(jsonBody, &out); err != nil {
					b.Fatal(err)
				}
			}
		},
		binary: func(b *testing.B) {
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
		},
	}
}

func BenchmarkEncodeRequest(b *testing.B)  { encodeRequestPair().run(b) }
func BenchmarkDecodeRequest(b *testing.B)  { decodeRequestPair().run(b) }
func BenchmarkEncodeResponse(b *testing.B) { encodeResponsePair().run(b) }
func BenchmarkDecodeResponse(b *testing.B) { decodeResponsePair().run(b) }

// TestBinaryCodecFasterThanJSON is the protocol speed gate: the binary
// framing must never cost more than JSON. The two protocols differ only
// in the codec — both serve the same decode, which costs milliseconds
// per frame — so the claim is checked there: each of the four codec
// operations, run through testing.Benchmark, takes fewer ns/op in
// binary than in JSON.
func TestBinaryCodecFasterThanJSON(t *testing.T) {
	// The gap is tens of times the noise; a short benchtime keeps the
	// eight runs to about a second.
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("100ms"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)
	for _, op := range []struct {
		name string
		pair codecPair
	}{
		{"EncodeRequest", encodeRequestPair()},
		{"DecodeRequest", decodeRequestPair()},
		{"EncodeResponse", encodeResponsePair()},
		{"DecodeResponse", decodeResponsePair()},
	} {
		j, bin := testing.Benchmark(op.pair.json), testing.Benchmark(op.pair.binary)
		t.Logf("%s: binary %d ns/op, json %d ns/op", op.name, bin.NsPerOp(), j.NsPerOp())
		if bin.NsPerOp() >= j.NsPerOp() {
			t.Errorf("%s: binary %d ns/op is not below json %d ns/op", op.name, bin.NsPerOp(), j.NsPerOp())
		}
	}
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
