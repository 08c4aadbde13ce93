package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/reader"
	"backfi/internal/tag"
)

// TestSingleTagUndecodableIsTyped drives the reader's untried-layer
// failures through core's single-tag decode: each comes back as an
// error wrapping reader.ErrUndecodable, from Session.Send (which still
// returns it), from RunCustomExcitation, and from the decode itself on
// a packet cut short of the tag's preamble.
func TestSingleTagUndecodableIsTyped(t *testing.T) {
	t.Run("session-unusable-fit", func(t *testing.T) {
		// As many taps as a chip has samples leave one fit row per chip.
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 3
		cfg.Reader.ChannelTaps = tag.ChipSamples
		s, err := NewSession(cfg, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = s.Send(make([]byte, 24))
		if !errors.Is(err, reader.ErrUndecodable) {
			t.Fatalf("Send: %v, want an error wrapping reader.ErrUndecodable", err)
		}
		t.Log(err)
	})
	t.Run("custom-singular-fit", func(t *testing.T) {
		// An excitation silent over the tag preamble leaves the fit's
		// normal matrix zero, singular without a ridge.
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 3
		cfg.Reader.Lambda = 0
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload := link.RandomPayload(24)
		r := rand.New(rand.NewSource(4))
		exc := make([]complex128, tagNeed(link.Tag.Cfg, len(payload))+200)
		for i := range exc {
			exc[i] = cmplx.Rect(1, 2*math.Pi*r.Float64())
		}
		clear(exc[tag.SilentSamples : tag.SilentSamples+link.Tag.Cfg.PreambleSamples()])
		_, err = link.RunCustomExcitation(exc, payload)
		if !errors.Is(err, reader.ErrUndecodable) {
			t.Fatalf("RunCustomExcitation: %v, want an error wrapping reader.ErrUndecodable", err)
		}
		t.Log(err)
	})
	t.Run("too-short", func(t *testing.T) {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 3
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload := link.RandomPayload(24)
		ex, packetStart, err := link.template(link.Tag, link.Scenario.TxPowerW(), link.sizing(tagNeed(link.Tag.Cfg, len(payload))))
		if err != nil {
			t.Fatal(err)
		}
		x := ex.Samples()
		b := burst{
			ex:          ex,
			x:           x,
			packetStart: packetStart,
			packetLen:   len(x) - packetStart,
			polled:      []int{0},
			payloads:    [][]byte{payload},
		}
		fs := new(frameScratch)
		if err := link.capture(fs, &b); err != nil {
			t.Fatal(err)
		}
		// The reader sees a capture that ends inside the tag preamble.
		cut := packetStart + tag.SilentSamples + 10
		b.x, fs.air, fs.y[0] = b.x[:cut], fs.air[:cut], fs.y[0][:cut]
		dec, err := link.decode(fs, &b, []tag.Config{link.Tag.Cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err = dec.Tag(0); !errors.Is(err, reader.ErrUndecodable) {
			t.Fatalf("decode: %v, want an error wrapping reader.ErrUndecodable", err)
		}
		t.Log(err)
	})
}
