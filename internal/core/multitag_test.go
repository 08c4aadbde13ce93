package core

import (
	"fmt"
	"math"
	"testing"

	"backfi/internal/dsp"
	"backfi/internal/tag"
)

func TestMultiTagAddressedTagOnlyWakes(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 3
	m, err := NewMultiTagLink(cfg, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for addressed := 0; addressed < 3; addressed++ {
		payload := []byte{byte(addressed), 1, 2, 3, 4, 5, 6, 7}
		res, err := m.Poll(addressed, payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, woke := range res.Woke {
			if i == addressed && !woke {
				t.Fatalf("addressed tag %d did not wake", i)
			}
			if i != addressed && woke {
				t.Fatalf("tag %d woke on tag %d's sequence", i, addressed)
			}
		}
		if !res.Results[0].PayloadOK {
			t.Fatalf("addressed tag %d failed to deliver", addressed)
		}
	}
}

func TestMultiTagImpostorCollides(t *testing.T) {
	// Two tags with the SAME ID (same wake sequence, same PN) at
	// similar ranges: both wake on the poll and their reflections
	// superpose, so decoding should be much worse than the clean case.
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 4
	clean, err := NewMultiTagLink(cfg, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	collided, err := NewMultiTagLink(cfg, []float64{1, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	// Force the impostor to share the wake sequence and PN (ID 0).
	impostorCfg := cfg.Tag
	impostorCfg.ID = 0
	impostor, err := tag.New(impostorCfg)
	if err != nil {
		t.Fatal(err)
	}
	collided.Tags[1] = impostor

	payload := make([]byte, 48)
	okClean, okCollided := 0, 0
	snrClean, snrCollided := 0.0, 0.0
	const trials = 5
	for i := 0; i < trials; i++ {
		cfg.Seed = 100 + int64(i)
		c1, _ := NewMultiTagLink(cfg, []float64{1})
		r1, err := c1.Poll(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Results[0].PayloadOK {
			okClean++
		}
		snrClean += r1.Results[0].MeasuredSNRdB

		c2, _ := NewMultiTagLink(cfg, []float64{1, 1.2})
		c2.Tags[1] = impostor
		r2, err := c2.Poll(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Woke[1] {
			t.Fatal("impostor with matching sequence should wake")
		}
		if r2.Results[0].PayloadOK {
			okCollided++
		}
		snrCollided += r2.Results[0].MeasuredSNRdB
	}
	if okClean < 4 {
		t.Fatalf("clean deployment only %d/%d", okClean, trials)
	}
	if snrCollided >= snrClean-3 {
		t.Fatalf("collision should cost SNR: %v vs %v", snrCollided/trials, snrClean/trials)
	}
	_ = clean
	_ = collided
}

func TestMultiTagValidation(t *testing.T) {
	if _, err := NewMultiTagLink(DefaultLinkConfig(1), nil); err == nil {
		t.Fatal("expected error for no tags")
	}
	m, err := NewMultiTagLink(DefaultLinkConfig(1), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Poll(5, nil); err == nil {
		t.Fatal("expected index error")
	}
}

// A deployment has one AP: whichever tag a poll or slot addresses,
// chain 0 captures the AP's self-interference through placement 0's
// h_env. Placement 1's own h_env draw is raised 20 dB here, so a capture
// that leaked through it would read ~20 dB more before cancellation.
func TestOneAPPerDeployment(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 5
	m, err := NewMultiTagLink(cfg, []float64{1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	henv := m.Scenarios[1].HEnv
	m.Scenarios[1].HEnv = henv.Scale(dsp.DB(henv.Gain()) + 20)
	wantDBm := dsp.DBm(m.Scenario.SelfInterferencePowerW())
	check := func(what string, pr *PacketResult) {
		t.Helper()
		if pr == nil {
			t.Fatalf("%s: no result", what)
		}
		if d := pr.SICBeforeDBm - wantDBm; math.Abs(d) > 1 {
			t.Fatalf("%s: %.1f dBm before cancellation, %+.1f dB off the AP's self-interference", what, pr.SICBeforeDBm, d)
		}
	}
	for i := range 2 {
		res, err := m.Poll(i, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Poll(%d)", i), res.Results[0])
	}
	if err := m.SetWakeGroup(groupWakeID); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunSlot([]int{0, 1}, slotPayloads(5, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for k, pr := range res.Results {
		check(fmt.Sprintf("RunSlot layer %d", k), pr)
	}
}
