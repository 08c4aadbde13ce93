package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeFrame throws arbitrary frame bodies at both binary
// decoders. The contract under fuzzing: never panic, never over-read
// (the decoders only slice the body they are handed; declared lengths
// are bounds-checked first), and every failure is typed — errors.Is
// ErrBadRequest — so transports can always answer a typed bad_request
// frame. Valid frames must survive a re-encode round trip.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: valid requests and responses, their truncations, and
	// version-skewed variants (wrong kind byte, future flag bits).
	for _, r := range binRequests() {
		b, err := appendRequestBinary(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		skew := append([]byte{}, b...)
		skew[0] = 0x7F
		f.Add(skew)
	}
	for _, r := range binResponses() {
		b, err := appendResponseBinary(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		if len(b) > 1 {
			skew := append([]byte{}, b...)
			skew[1] |= 0xE0 // flag bits a future version might define
			f.Add(skew)
		}
	}
	// v2 handoff blocks with taps and an energy block, in a request and
	// a response, plus a version-1 block in the old hand-written layout.
	v2 := v2Snapshot()
	for _, b := range [][]byte{
		mustBin(appendRequestBinary(nil, &Request{Op: OpHandoff, Session: "v2", Handoff: v2})),
		mustBin(appendResponseBinary(nil, &Response{OK: true, Code: CodeOK, Session: "v2", Seq: 4, Handoff: v2})),
		v1HandoffRequest(),
	} {
		f.Add(b)
		f.Add(b[:len(b)-7])
	}
	f.Add([]byte{})
	f.Add([]byte{binKindDecode, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{binKindDecode, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, body []byte) {
		var names internTable
		var req Request
		if err := decodeRequestBinary(body, &req, &names); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("request decode: untyped error %v", err)
			}
		} else {
			// Accepted frames must re-encode to a frame that decodes to
			// the same values (the wire allows non-canonical varints, so
			// byte equality is not required — a value fixed point is).
			re, err := appendRequestBinary(nil, &req)
			if err != nil {
				t.Fatalf("re-encode of accepted request failed: %v", err)
			}
			var again Request
			if err := decodeRequestBinary(re, &again, &names); err != nil {
				t.Fatalf("re-encoded request did not decode: %v", err)
			}
			if again.Op != req.Op || again.Session != req.Session ||
				again.TimeoutMs != req.TimeoutMs || again.Trace != req.Trace ||
				!bytes.Equal(again.Payload, req.Payload) || !samePayloads(again.Payloads, req.Payloads) {
				t.Fatalf("request round trip not a fixed point:\n %+v\n %+v", req, again)
			}
		}
		var resp Response
		if err := decodeResponseBinary(body, &resp, &names, nil); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("response decode: untyped error %v", err)
			}
		} else {
			re, err := appendResponseBinary(nil, &resp)
			if err != nil {
				t.Fatalf("re-encode of accepted response failed: %v", err)
			}
			var again Response
			if err := decodeResponseBinary(re, &again, &names, nil); err != nil {
				t.Fatalf("re-encoded response did not decode: %v", err)
			}
			rs, as := resp, again
			rst, ast := rs.Stats, as.Stats
			sameStats := (rst == nil) == (ast == nil) && (rst == nil || *rst == *ast ||
				(isNaNStats(rst) && isNaNStats(ast)))
			if !eqResp(&rs, &as) {
				t.Fatalf("response round trip not a fixed point:\n %+v\n %+v", resp, again)
			}
			if !sameStats {
				t.Fatalf("response stats round trip not a fixed point:\n %+v\n %+v", rst, ast)
			}
		}
	})
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// eqResp compares everything but Stats field-by-field. NaN never
// compares equal to itself, but NaN floats are legal on the wire, so
// floats compare NaN==NaN here.
func eqResp(a, b *Response) bool {
	if a.OK != b.OK || a.Code != b.Code || a.Error != b.Error ||
		a.Session != b.Session || a.Seq != b.Seq ||
		a.Delivered != b.Delivered || a.PayloadOK != b.PayloadOK ||
		a.Attempts != b.Attempts || a.NoWakes != b.NoWakes ||
		a.ACKsDropped != b.ACKsDropped || a.Degraded != b.Degraded ||
		!eqF64(a.SNRdB, b.SNRdB) || len(a.Tags) != len(b.Tags) {
		return false
	}
	for i := range a.Tags {
		x, y := a.Tags[i], b.Tags[i]
		if x.Delivered != y.Delivered || x.PayloadOK != y.PayloadOK ||
			x.Woke != y.Woke || !eqF64(x.SNRdB, y.SNRdB) {
			return false
		}
	}
	return true
}

func eqF64(a, b float64) bool { return a == b || (a != a && b != b) }

func isNaNStats(s *SessionStats) bool {
	return s.AirtimeSec != s.AirtimeSec || s.BackoffSec != s.BackoffSec || s.BitRateBps != s.BitRateBps
}

// FuzzHandoffInstall throws arbitrary bytes, decoded as a HandoffState,
// at the install path of a live session on a faulted, adaptive,
// energy-gated node under a mobility timeline. The contract: never a
// panic or an untyped failure — an install is accepted or refused as
// bad_request; a refused install leaves the session's next answer
// byte-identical to an untouched control node's; an accepted install
// continues Seq without a gap from the snapshot's.
func FuzzHandoffInstall(f *testing.F) {
	const id = "fz"
	var nodes [3]*Client // target, control, seeder
	for i := range nodes {
		c, err := Dial(startServer(f, energyMobilityConfig(f, 1)).Addr())
		if err != nil {
			f.Fatal(err)
		}
		defer c.Close()
		nodes[i] = c
	}
	target, control, seeder := nodes[0], nodes[1], nodes[2]
	poll := func(t testing.TB, c *Client, i int) (*Response, []byte) {
		resp, err := c.Decode(id, sessionPayload(id, i))
		if err != nil && !errors.Is(err, ErrTagDark) {
			t.Fatalf("poll %d: %v", i, err)
		}
		b, _ := json.Marshal(resp)
		return resp, b
	}

	// Seed corpus: the session's own snapshots at several ages (decodes
	// and dark answers), each also version-skewed, and degenerate
	// documents. The first is the baseline every input starts from.
	var baseline *HandoffState
	for i := 0; i < 24; i++ {
		poll(f, seeder, i)
		if i%6 != 0 {
			continue
		}
		hs := *seeder.LastHandoff(id)
		if baseline == nil {
			baseline = seeder.LastHandoff(id)
		}
		b, _ := json.Marshal(&hs)
		f.Add(b)
		hs.Version = 1
		b, _ = json.Marshal(&hs)
		f.Add(b)
	}
	for _, mut := range []func(*HandoffState){
		func(h *HandoffState) { copy(h.HF, wireTaps([]complex128{complex(1e150, -1e150)})) },
		func(h *HandoffState) { copy(h.HB[16:], wireTaps([]complex128{5e-324})) },
		func(h *HandoffState) { h.HB = h.HB[:len(h.HB)-3] },
		func(h *HandoffState) { h.Attempts, h.Stats.FramesOffered = 1<<62, 1<<62 },
		func(h *HandoffState) { h.Energy.Tank.Slot, h.Energy.DarkStreak = 1<<62, 1<<62 },
		func(h *HandoffState) { h.Ctrl.Index, h.Ctrl.Ceiling = 1<<40, -1 },
	} {
		hs := *baseline
		hs.HF, hs.HB = bytes.Clone(hs.HF), bytes.Clone(hs.HB)
		e, c := *hs.Energy, *hs.Ctrl
		hs.Energy, hs.Ctrl = &e, &c
		mut(&hs)
		b, _ := json.Marshal(&hs)
		f.Add(b)
	}
	for _, s := range []string{"", "null", "{}", `{"v":2}`, `{"v":2,"attempts":-1}`,
		`{"v":2,"h_env":"AAAAAAAA8H8AAAAAAAAAAA==","h_f":"","h_b":""}`} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var hs HandoffState
		if json.Unmarshal(data, &hs) != nil {
			return // not a snapshot; the frame codecs own malformed bytes
		}
		// Put both nodes' session into the same live state: the
		// baseline, then one poll.
		for _, c := range []*Client{target, control} {
			if _, err := c.InstallHandoff(id, baseline); err != nil {
				t.Fatalf("baseline install: %v", err)
			}
			poll(t, c, 100)
		}
		_, err := target.InstallHandoff(id, &hs)
		if err != nil && !isBadRequest(err) {
			t.Fatalf("install answered %v, want ok or bad_request", err)
		}
		got, gb := poll(t, target, 101)
		if err != nil {
			if _, wb := poll(t, control, 101); string(gb) != string(wb) {
				t.Fatalf("refused install (%v) moved the session:\ngot  %s\nwant %s", err, gb, wb)
			}
			return
		}
		want := hs.Seq + 1
		if got.Code == CodeTagDark {
			want = hs.Seq
		}
		if got.Seq != want {
			t.Fatalf("accepted install at seq %d answered %s with seq %d", hs.Seq, got.Code, got.Seq)
		}
	})
}
