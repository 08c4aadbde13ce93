package core

import (
	"math/rand"
	"testing"

	"backfi/internal/adapt"
	"backfi/internal/fault"
)

// frameRecord is the per-frame evidence the snapshot-resume tests
// byte-compare: everything a serving-layer response would carry.
type frameRecord struct {
	Delivered, PayloadOK              bool
	PacketsSent, NoWakes, ACKsDropped int
	ConfigSwitches                    int
	SNRdB, AirtimeSec                 float64
	RawBitErrors                      int
}

func recordFrame(t *testing.T, s *Session, payload []byte) frameRecord {
	t.Helper()
	res, ok, err := s.Send(payload)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	rec := frameRecord{
		Delivered:      ok,
		PacketsSent:    s.Stats.PacketsSent,
		NoWakes:        s.Stats.NoWakes,
		ACKsDropped:    s.Stats.ACKsDropped,
		ConfigSwitches: s.Stats.ConfigSwitches,
		AirtimeSec:     s.Stats.AirtimeSec,
	}
	if res != nil {
		rec.PayloadOK = res.PayloadOK
		rec.SNRdB = res.MeasuredSNRdB
		rec.RawBitErrors = res.RawBitErrors
	}
	return rec
}

// payloads returns the deterministic frame payload sequence the tests
// share between control and resumed runs.
func payloads(n, size int) [][]byte {
	rng := rand.New(rand.NewSource(77))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// runResumeCase runs the control session end to end, then a split run
// that snapshots at frame `cut` and resumes into a fresh session, and
// requires byte-identical per-frame records after the cut.
func runResumeCase(t *testing.T, mk func() (*Session, error), frames, cut int) {
	t.Helper()
	pl := payloads(frames, 24)

	ctrl, err := mk()
	if err != nil {
		t.Fatalf("control session: %v", err)
	}
	want := make([]frameRecord, frames)
	for i := range want {
		want[i] = recordFrame(t, ctrl, pl[i])
	}

	first, err := mk()
	if err != nil {
		t.Fatalf("first session: %v", err)
	}
	for i := 0; i < cut; i++ {
		got := recordFrame(t, first, pl[i])
		if got != want[i] {
			t.Fatalf("pre-cut frame %d diverged: got %+v want %+v", i, got, want[i])
		}
	}
	snap := first.Snapshot()

	second, err := mk()
	if err != nil {
		t.Fatalf("second session: %v", err)
	}
	if err := second.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	for i := cut; i < frames; i++ {
		got := recordFrame(t, second, pl[i])
		if got != want[i] {
			t.Fatalf("post-resume frame %d diverged: got %+v want %+v", i, got, want[i])
		}
	}
	if second.Stats != ctrl.Stats {
		t.Fatalf("final stats diverged: got %+v want %+v", second.Stats, ctrl.Stats)
	}
}

// TestMigratableResumeByteIdentical is the core handoff contract
// (DESIGN.md §5j): a fresh session restored from a snapshot continues
// the control session's decode stream byte-identically, for fixed and
// adaptive sessions and under an active fault profile.
func TestMigratableResumeByteIdentical(t *testing.T) {
	// 2.5 m with channel evolution: far enough that retries, ACK
	// drops, and controller activity all occur within 30 frames.
	base := func() LinkConfig {
		cfg := DefaultLinkConfig(2.5)
		cfg.Seed = 11
		return cfg
	}
	cases := []struct {
		name string
		mk   func() (*Session, error)
	}{
		{"fixed", func() (*Session, error) {
			return NewSession(base(), 0.9, 2)
		}},
		{"adaptive", func() (*Session, error) {
			return NewAdaptiveSession(base(), 0.9, 2, adapt.Config{}, 250e3)
		}},
		{"faulted", func() (*Session, error) {
			cfg := base()
			p := fault.Standard(0.5)
			cfg.Faults = &p
			return NewSession(cfg, 0.9, 2)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, cut := range []int{1, 13} {
				runResumeCase(t, tc.mk, 30, cut)
			}
		})
	}
}

// TestMigratableResumeAcrossFaultSwitch exercises the timeline-replay
// contract the serving layer depends on: a profile switch before the
// cut must be replayed on the receiving link (same switch sequence)
// for the fault stream to line up.
func TestMigratableResumeAcrossFaultSwitch(t *testing.T) {
	frames, cut, switchAt := 24, 12, 6
	pl := payloads(frames, 24)
	sev := fault.Standard(0.6)

	mk := func() (*Session, error) {
		cfg := DefaultLinkConfig(2.5)
		cfg.Seed = 5
		return NewSession(cfg, 0.9, 2)
	}
	run := func(s *Session, from, to int) []frameRecord {
		var out []frameRecord
		for i := from; i < to; i++ {
			if i == switchAt {
				if err := s.SetFaultProfile(&sev); err != nil {
					t.Fatalf("SetFaultProfile: %v", err)
				}
			}
			out = append(out, recordFrame(t, s, pl[i]))
		}
		return out
	}

	ctrl, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	want := run(ctrl, 0, frames)

	first, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	run(first, 0, cut)
	snap := first.Snapshot()

	second, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	// The serving layer replays the scripted profile switches that
	// happened before the cut, then restores.
	if err := second.SetFaultProfile(&sev); err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got := run(second, cut, frames)
	for i := range got {
		if got[i] != want[cut+i] {
			t.Fatalf("post-resume frame %d diverged: got %+v want %+v", cut+i, got[i], want[cut+i])
		}
	}
}

// TestSnapshotGuardrails pins the restore guardrails: a snapshot only
// installs into an unused session with matching controller presence.
func TestSnapshotGuardrails(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	m, err := NewSession(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Send(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreSnapshot(SessionSnapshot{Attempts: 3}); err == nil {
		t.Fatal("RestoreSnapshot into used session did not error")
	}
	fresh, err := NewSession(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(SessionSnapshot{Attempts: -1}); err == nil {
		t.Fatal("negative attempt ordinal did not error")
	}
	snap := m.Snapshot()
	ctrlState := adapt.State{}
	snap.Ctrl = &ctrlState
	if err := fresh.RestoreSnapshot(snap); err == nil {
		t.Fatal("controller-presence mismatch did not error")
	}
}
