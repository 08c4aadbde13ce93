// Duplex: the full BackFi control loop, both directions.
//
// Downlink (paper Sec. 5.2.1): the AP on-off-keys a ~20 kbps command
// that the tag's envelope detector demodulates — here, a rate-change
// order. Uplink: the tag applies the new configuration and
// backscatters its data. The example then repeats the uplink with a
// 4-antenna AP (the paper's Sec. 7 extension) to show the diversity
// gain.
//
// Run: go run ./examples/duplex
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"backfi"
	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/tag"
)

func main() {
	log.SetFlags(0)
	const distance = 3.0

	fmt.Println("BackFi duplex control loop (tag at 3 m)")
	fmt.Println("---------------------------------------")

	// --- Downlink: AP → tag command over the OOK channel.
	command := "set mod=qpsk coding=1/2 symrate=1e6"
	txAmp := math.Sqrt(dsp.UnDBm(20))
	wave, err := tag.EncodeDownlink([]byte(command), txAmp)
	if err != nil {
		log.Fatal(err)
	}
	// One-way path to the tag at the calibrated backscatter exponent.
	pl := channel.LogDistancePLdB(distance, channel.DefaultCarrierHz, 1.05, 1)
	atTag := dsp.Scale(wave, complex(math.Sqrt(dsp.UnDB(-pl)), 0))
	got, err := tag.DecodeDownlink(atTag, dsp.UnDBm(-41))
	if err != nil {
		log.Fatalf("downlink failed: %v", err)
	}
	fmt.Printf("downlink command (%.0f kbps OOK): %q\n", tag.DownlinkRateBps/1e3, string(got))

	// --- Tag applies the command.
	tcfg := parseCommand(string(got))
	fmt.Printf("tag reconfigured: %v (%.2f Mbps)\n\n", tcfg, tcfg.BitRate()/1e6)

	// --- Uplink with a single-antenna AP.
	cfg := backfi.DefaultLinkConfig(distance)
	cfg.Tag = tcfg
	cfg.Seed = 21
	link, err := backfi.NewLink(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := link.RunPacket([]byte("telemetry after reconfig: 48 readings"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uplink (1 antenna):  ok=%v SNR=%.1f dB\n", res.PayloadOK, res.MeasuredSNRdB)

	// --- Uplink with a 4-antenna AP (Sec. 7 extension).
	mimo, err := backfi.NewMIMOLink(cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	mres, err := mimo.RunPacket([]byte("telemetry after reconfig: 48 readings"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uplink (4 antennas): ok=%v SNR=%.1f dB (per antenna:", mres.PayloadOK, mres.MeasuredSNRdB)
	for _, s := range mres.Decode.PerAntennaSNRdB {
		fmt.Printf(" %.1f", s)
	}
	fmt.Println(" dB)")
	fmt.Printf("spatial diversity gain: %.1f dB over the mean single chain\n",
		mres.MeasuredSNRdB-mean(mres.Decode.PerAntennaSNRdB))
}

// parseCommand applies a "set k=v ..." command to a tag configuration.
func parseCommand(cmd string) backfi.TagConfig {
	tcfg := backfi.TagConfig{
		Mod: backfi.BPSK, Coding: backfi.Rate12, SymbolRateHz: 500e3,
		PreambleChips: backfi.DefaultPreambleChips, ID: 1,
	}
	for _, field := range strings.Fields(cmd) {
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			continue
		}
		switch kv[0] {
		case "mod":
			switch kv[1] {
			case "bpsk":
				tcfg.Mod = backfi.BPSK
			case "qpsk":
				tcfg.Mod = backfi.QPSK
			case "16psk":
				tcfg.Mod = backfi.PSK16
			}
		case "coding":
			if kv[1] == "2/3" {
				tcfg.Coding = backfi.Rate23
			}
		case "symrate":
			var v float64
			fmt.Sscanf(kv[1], "%g", &v)
			if v > 0 {
				tcfg.SymbolRateHz = v
			}
		}
	}
	return tcfg
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
