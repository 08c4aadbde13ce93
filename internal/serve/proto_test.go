package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// jsonFrame frames a JSON request through the legacy codec, as a
// client writes it.
func jsonFrame(t *testing.T, req *Request) []byte {
	t.Helper()
	var codec wireCodec
	b, err := codec.appendRequest([]byte{0, 0, 0, 0}, req)
	if err != nil {
		t.Fatal(err)
	}
	return codec.finishFrame(b)
}

// readJSONRequest reads one legacy frame and decodes it as the server
// does.
func readJSONRequest(wire []byte) (*Request, error) {
	var codec wireCodec
	body, err := codec.reader(bufioReader(bytes.NewReader(wire))).read()
	if err != nil {
		return nil, err
	}
	return codec.decodeRequest(body)
}

func TestFrameRoundTrip(t *testing.T) {
	in := Request{Op: OpDecode, Session: "alpha", Payload: []byte("reading-42"), TimeoutMs: 250}
	out, err := readJSONRequest(jsonFrame(t, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Session != in.Session || out.TimeoutMs != in.TimeoutMs || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mutated request: %+v vs %+v", out, in)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// Read side: a header claiming more than the cap must fail before
	// the body is allocated or consumed.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	if _, err := readJSONRequest(hdr[:]); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversize read error = %v, want ErrBadRequest", err)
	}
	// Write side: a body beyond the cap must refuse to hit the wire.
	s := startServer(t, Config{Shards: 1})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("x", bytes.Repeat([]byte{1}, MaxFrameBytes)); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("oversize frame error = %v, want the frame cap", err)
	}
}

func TestFrameBadJSON(t *testing.T) {
	body := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := readJSONRequest(append(hdr[:], body...)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad JSON error = %v, want ErrBadRequest", err)
	}
}

func TestResponseErrMapping(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{CodeOK, nil},
		{CodeQueueFull, ErrQueueFull},
		{CodeDraining, ErrDraining},
		{CodeDeadline, ErrDeadline},
		{CodeBadRequest, ErrBadRequest},
	}
	for _, tc := range cases {
		err := (&Response{Code: tc.code, Error: "detail"}).Err()
		if tc.want == nil {
			if err != nil {
				t.Fatalf("code %q: err = %v, want nil", tc.code, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("code %q: err = %v, want %v", tc.code, err, tc.want)
		}
	}
	if err := (&Response{Code: CodeError, Error: "decode exploded"}).Err(); err == nil || !strings.Contains(err.Error(), "decode exploded") {
		t.Fatalf("generic error lost detail: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Shards: -1},
		{QueueDepth: -2},
		{BatchMax: -1},
		{MaxRetries: -3},
		{CoherenceRho: 1.5},
		{JobTimeout: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config passed validation", i)
		}
	}
	if err := (&Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (defaults fill later): %v", err)
	}
}
