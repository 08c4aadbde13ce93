package scenario

import (
	"fmt"
	"testing"
	"time"

	"backfi/internal/core"
	"backfi/internal/serve"
)

// fuzzProgram decodes fuzz bytes into a bounded op program: at most 16
// ops over at most 3 session ids (prefixed by input so inputs share no
// session), each byte b choosing the kind b&3 — decode, mdecode of 2,
// stats, connection break — for session (b>>2)%3. It also returns how
// many ops are cross-kind: a decode on a group or an mdecode on a
// single-tag session, which both daemons must answer bad_request.
func fuzzProgram(prefix string, data []byte) (prog []Session, crossKind int) {
	if len(data) > 16 {
		data = data[:16]
	}
	var sessions [3]Session
	var kind [3]Kind // the kind fixed by a session's first decode
	var fixed, used [3]bool
	var frames [3]int
	for _, b := range data {
		s := int(b>>2) % 3
		used[s] = true
		op := Op{Kind: [...]Kind{Decode, MultiDecode, Stats, Break}[b&3]}
		if op.Kind == Decode || op.Kind == MultiDecode {
			if op.Kind == MultiDecode {
				op.Tags = 2
			}
			if !fixed[s] {
				kind[s], fixed[s] = op.Kind, true
			}
			if op.Kind != kind[s] {
				crossKind++
			} else {
				op.Frame = frames[s]
				frames[s]++
			}
		}
		sessions[s].Ops = append(sessions[s].Ops, op)
	}
	for s := range sessions {
		if used[s] {
			sessions[s].ID = fmt.Sprintf("%s-%d", prefix, s)
			prog = append(prog, sessions[s])
		}
	}
	return prog, crossKind
}

// FuzzDaemon runs fuzzed op programs through the engine against two
// identically configured daemons — one shard on JSON, four shards on
// binary — and asserts byte-identical answers, gap-free Seq, no panic,
// and bad_request for exactly the cross-kind ops. The daemons start once
// per fuzz process; inputs use fresh session ids.
//
//	go test ./internal/scenario/ -run FuzzDaemon -fuzz FuzzDaemon -fuzztime 30s
func FuzzDaemon(f *testing.F) {
	// The cases of serve's TestSessionKindFixed for session 0, then a
	// mixed program over all three ids.
	f.Add([]byte{1, 0, 1})          // decode on a group
	f.Add([]byte{0, 1, 0})          // mdecode on a single-tag session
	f.Add([]byte{1, 2, 1})          // a group answers stats and keeps its stream
	f.Add([]byte{0, 3, 0, 2, 4, 9}) // break, stats, a second single, a group
	link := core.DefaultLinkConfig(1)
	link.Seed = 1005
	h := NewHarness()
	addr := func(shards int) string {
		srv, err := h.Boot(serve.Config{Link: link, Shards: shards, Handoff: true})
		if err != nil {
			f.Fatal(err)
		}
		return srv.Addr()
	}
	target, control := addr(4), addr(1)
	defer h.Drain()
	input := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		input++
		prog, crossKind := fuzzProgram(fmt.Sprintf("fz%d", input), data)
		if len(prog) == 0 {
			return
		}
		res, err := Run(Config{
			Program:      prog,
			PayloadBytes: 24,
			Dial: func(int) (Target, error) {
				return serve.DialClient(serve.ClientConfig{Addr: target, Proto: "binary",
					MaxRedials: 2, RedialBase: time.Millisecond, IOTimeout: 10 * time.Second})
			},
			Control: func(int) (Target, error) {
				return serve.DialClient(serve.ClientConfig{Addr: control, Proto: "json", IOTimeout: 10 * time.Second})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if tot := res.Total(); tot.Failed != crossKind || tot.Rejected != 0 {
			t.Fatalf("%d failed and %d rejected ops, want exactly the %d cross-kind ops failed", tot.Failed, tot.Rejected, crossKind)
		}
	})
}
