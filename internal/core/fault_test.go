package core

import (
	"reflect"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/fault"
)

// TestNilFaultsMatchesZeroProfile pins the hardening contract's
// backward-compatibility edge: a LinkConfig with Faults == nil and one
// with an all-zero (disabled) profile must produce byte-identical
// packet results — enabling the subsystem without enabling any
// impairment is a no-op.
func TestNilFaultsMatchesZeroProfile(t *testing.T) {
	run := func(p *fault.Profile) *PacketResult {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = 42
		cfg.Faults = p
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunPacket(link.RandomPayload(48))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nilRes := run(nil)
	zeroRes := run(&fault.Profile{})
	if !reflect.DeepEqual(nilRes, zeroRes) {
		t.Fatalf("zero fault profile perturbed the link:\nnil:  %+v\nzero: %+v", nilRes, zeroRes)
	}
}

// TestEvaluateFaultsBitIdenticalAcrossWorkers extends the PR 1
// determinism contract to impaired links: with a fixed nonzero
// profile, the Monte-Carlo summary must not depend on the worker
// count, because each trial's injector derives from the trial seed.
func TestEvaluateFaultsBitIdenticalAcrossWorkers(t *testing.T) {
	base := DefaultLinkConfig(1)
	p := fault.Standard(0.6)
	var got []Feasibility
	for _, workers := range []int{1, 8} {
		f, err := Evaluate(channel.DefaultConfig(1), base.Tag, base.Reader, &p, 8, 24, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("impaired evaluation depends on workers:\n1: %+v\n8: %+v", got[0], got[1])
	}
}

// TestFaultsChangeOutcome is the other direction of the no-op test: a
// severe profile must actually perturb the receive chain (otherwise
// the injection hooks are dead code).
func TestFaultsChangeOutcome(t *testing.T) {
	run := func(p *fault.Profile) *PacketResult {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = 42
		cfg.Faults = p
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunPacket(link.RandomPayload(48))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	p := fault.Standard(1)
	hostile := run(&p)
	if reflect.DeepEqual(clean, hostile) {
		t.Fatal("severity-1 profile left the packet result untouched")
	}
	if hostile.MeasuredSNRdB >= clean.MeasuredSNRdB {
		t.Fatalf("hostile front end should cost SNR: %v dB vs clean %v dB",
			hostile.MeasuredSNRdB, clean.MeasuredSNRdB)
	}
}
