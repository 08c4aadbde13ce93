package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// wireDigests encodes every fixture message in both framings — each
// request of binRequests untraced and traced, each response of
// binResponses, and the full v2 snapshot — and returns one
// "name digest" line per encoding, the digest being the first 8 bytes
// of the body's SHA-256.
func wireDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	add := func(name string, body []byte, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(body)
		out = append(out, fmt.Sprintf("%s %x", name, sum[:8]))
	}
	for i, req := range binRequests() {
		for _, trace := range []uint64{0, 0x0123456789abcdef} {
			req.Trace = trace
			name := fmt.Sprintf("req%d/traced=%t", i, trace != 0)
			b, err := appendRequestBinary(nil, &req)
			add(name+"/binary", b, err)
			j, err := json.Marshal(&req)
			add(name+"/json", j, err)
		}
	}
	for i, resp := range binResponses() {
		name := fmt.Sprintf("resp%d", i)
		b, err := appendResponseBinary(nil, &resp)
		add(name+"/binary", b, err)
		j, err := json.Marshal(&resp)
		add(name+"/json", j, err)
	}
	j, err := json.Marshal(v2Snapshot())
	add("handoff-v2/json", j, err)
	return out
}

// TestWireGolden pins the exact bytes both wire protocols put on the
// wire for every fixture message. Neither codec may move a byte: a
// client built against an older daemon must keep decoding, and the
// JSON of HandoffState, SessionStats and the controller state must not
// depend on which struct carries its tags. The digests were recorded
// when every binary message had a hand-written encoder and decoder and
// the stats and controller state had serve-side wire copies; re-pin
// only for a deliberate, versioned wire change.
func TestWireGolden(t *testing.T) {
	want := []string{
		"req0/traced=false/binary 9d9f290527a6be62",
		"req0/traced=false/json 7da19bb816b03375",
		"req0/traced=true/binary b45f6422b1eb4578",
		"req0/traced=true/json f059233408cf371c",
		"req1/traced=false/binary 2825380014556c7c",
		"req1/traced=false/json e5e660e7d61bed98",
		"req1/traced=true/binary 38c170b1c10cc10f",
		"req1/traced=true/json a60c53b1b1ba0d56",
		"req2/traced=false/binary d69adae7b81b0bd1",
		"req2/traced=false/json 430b313e212438f7",
		"req2/traced=true/binary 8d5ff05bbc3516ac",
		"req2/traced=true/json 0c2010e78e182a1b",
		"req3/traced=false/binary 5fe33f7ca6052c5a",
		"req3/traced=false/json 67069b8514fe2b38",
		"req3/traced=true/binary 0c40ee4db79f608f",
		"req3/traced=true/json 79173ba036d5d531",
		"req4/traced=false/binary 1b3414404ba1d863",
		"req4/traced=false/json 7a8d72b99ce6b871",
		"req4/traced=true/binary 295fb584558fedba",
		"req4/traced=true/json fd307d5f84397e25",
		"req5/traced=false/binary 345dff32e2a8108d",
		"req5/traced=false/json 34fe39640cb109b5",
		"req5/traced=true/binary 4dfdb046e3a56141",
		"req5/traced=true/json f7442e32a2835b62",
		"req6/traced=false/binary 508f47f5d1e166be",
		"req6/traced=false/json 6551b51501234f51",
		"req6/traced=true/binary 3e5edc570694e321",
		"req6/traced=true/json b6add1b8921d0e75",
		"req7/traced=false/binary 1f2ab339395e9fa8",
		"req7/traced=false/json 4f11d31c2172b8ab",
		"req7/traced=true/binary e7a77af56ee0a4ca",
		"req7/traced=true/json 6c5cb634a5b3929a",
		"resp0/binary 59d193d8490c4dfc",
		"resp0/json 0996a7a340e662e9",
		"resp1/binary f8955e32b79a5a85",
		"resp1/json 10a80adfa8a66464",
		"resp2/binary ef95573c77eff5b5",
		"resp2/json d78f4794b5422624",
		"resp3/binary 8d1136fd49cf630f",
		"resp3/json a6f8dc9035a5f063",
		"resp4/binary 193941a7a8d45df5",
		"resp4/json 205d0b5e371cc2ac",
		"resp5/binary dea410600617cb48",
		"resp5/json b6dca6696a41bfb6",
		"resp6/binary 12bcf21f7ce7d853",
		"resp6/json e2531704ed78a153",
		"handoff-v2/json 19cc0ad4ae57e6ee",
	}
	got := wireDigests(t)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		var lit strings.Builder
		for _, l := range got {
			fmt.Fprintf(&lit, "\t\t%q,\n", l)
		}
		t.Errorf("wire bytes moved; the encodings now digest to:\n%s", lit.String())
	}
}
