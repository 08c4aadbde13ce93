// Command wifigen exercises the 802.11a/g OFDM PHY on its own:
// it encodes a PSDU into baseband IQ, optionally impairs it with
// multipath/noise/CFO, decodes it back, and reports the receiver
// diagnostics. Useful for inspecting the excitation signal BackFi
// rides on.
//
// Example:
//
//	wifigen -mbps 54 -bytes 1500 -snr 25 -cfo 40e3
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/iq"
	"backfi/internal/rng"
	"backfi/internal/wifi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wifigen: ")

	mbps := flag.Int("mbps", 24, "802.11a/g rate: 6 9 12 18 24 36 48 54")
	nbytes := flag.Int("bytes", 1000, "PSDU size in bytes")
	snr := flag.Float64("snr", math.Inf(1), "AWGN SNR in dB (default: no noise)")
	cfoHz := flag.Float64("cfo", 0, "carrier frequency offset in Hz")
	taps := flag.Int("taps", 0, "multipath taps (0 = ideal channel)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "write the (impaired) waveform to this IQ file")
	format := flag.String("format", "cf32", "IQ file format: cf32 | cs16")
	flag.Parse()

	rate, err := wifi.RateByMbps(*mbps)
	if err != nil {
		log.Fatal(err)
	}
	r, src := rng.NewWithSource(*seed)
	psdu := make([]byte, *nbytes)
	r.Read(psdu)

	wave, err := wifi.Transmit(psdu, rate, wifi.DefaultScramblerSeed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rate        %v\n", rate)
	fmt.Printf("PSDU        %d bytes\n", len(psdu))
	fmt.Printf("waveform    %d samples (%.1f µs, %d data symbols)\n",
		len(wave), float64(len(wave))/20, (len(wave)-wifi.PreambleLen-wifi.SymbolLen)/wifi.SymbolLen)
	fmt.Printf("airtime     %.1f µs\n", wifi.AirtimeSeconds(len(psdu), rate)*1e6)
	fmt.Printf("PAPR        %.1f dB\n", dsp.PAPRdB(wave))
	if len(wave) >= 256 {
		psd := dsp.WelchPSD(wave, 64)
		fmt.Printf("occupancy   %.0f%% of the band holds 99%% of the power\n",
			dsp.OccupiedBandwidth(psd, 0.99)*100)
	}

	// Pad with silence so synchronization is non-trivial and channel
	// tails fit.
	wave = dsp.Concat(dsp.Zeros(100), wave, dsp.Zeros(100))

	// Impairments.
	if *taps > 0 {
		h := channel.RayleighTaps(r, *taps, 0.5)
		wave = h.Apply(wave)
		fmt.Printf("channel     %d Rayleigh taps\n", *taps)
	}
	if *cfoHz != 0 {
		wave = dsp.Rotate(wave, 0, 2*math.Pi**cfoHz/wifi.SampleRate)
		fmt.Printf("CFO         %.1f kHz\n", *cfoHz/1e3)
	}
	if !math.IsInf(*snr, 1) {
		p := dsp.Power(wave)
		noise := channel.NewAWGN(src, p*dsp.UnDB(-*snr))
		wave = noise.Add(wave)
		fmt.Printf("AWGN        %.1f dB SNR\n", *snr)
	}

	if *out != "" {
		f, err := iq.ParseFormat(*format)
		if err != nil {
			log.Fatal(err)
		}
		fh, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := iq.Write(fh, wave, f, dsp.MaxAbs(wave)); err != nil {
			fh.Close()
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote       %s (%s, %d samples)\n", *out, f, len(wave))
	}

	got, info, err := wifi.NewReceiver().Receive(wave)
	if err != nil {
		log.Fatalf("decode failed: %v", err)
	}
	match := len(got) == len(psdu)
	for i := range got {
		if got[i] != psdu[i] {
			match = false
			break
		}
	}
	fmt.Printf("decoded     rate=%v len=%d match=%v\n", info.Rate, len(got), match)
	fmt.Printf("diagnostics EVM=%.4f (%.1f dB SNR), CFO=%.1f kHz\n",
		info.EVM, info.SNRdB, info.CFO*wifi.SampleRate/(2*math.Pi)/1e3)
	if !match {
		os.Exit(1)
	}
}
