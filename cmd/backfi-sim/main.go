// Command backfi-sim runs one end-to-end BackFi packet exchange and
// prints the link diagnostics: cancellation depth, channel estimate
// quality, post-MRC SNR, raw BER, and the decoded payload check.
//
// Example:
//
//	backfi-sim -distance 2 -mod qpsk -coding 1/2 -symrate 1e6 -bytes 200
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"backfi"
	"backfi/internal/core"
	"backfi/internal/experiments"
	"backfi/internal/obs"
	"backfi/internal/rng"
)

// runWith performs one exchange over the chosen excitation family;
// seed keys an ambient waveform's random payloads.
func runWith(link *core.Link, excitation string, payload []byte, seed int64) (*core.PacketResult, error) {
	if excitation == "wifi" {
		return link.RunPacket(payload)
	}
	exc, err := experiments.AmbientExcitation(excitation, link.Tag.Cfg, len(payload), seed)
	if err != nil {
		return nil, err
	}
	return link.RunCustomExcitation(exc, payload)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-sim: ")

	distance := flag.Float64("distance", 1, "AP–tag distance in meters")
	mod := flag.String("mod", "qpsk", "tag modulation: bpsk | qpsk | 16psk")
	coding := flag.String("coding", "1/2", "convolutional code rate: 1/2 | 2/3")
	symrate := flag.Float64("symrate", 1e6, "tag symbol rate in Hz (must divide 20 MHz)")
	preamble := flag.Int("preamble", backfi.DefaultPreambleChips, "tag preamble length in 1 µs chips (32 or 96)")
	bytes := flag.Int("bytes", 100, "payload size in bytes")
	packets := flag.Int("packets", 1, "number of packet exchanges")
	seed := flag.Int64("seed", 1, "random seed")
	excitation := flag.String("excitation", "wifi", "excitation signal: wifi | 11b | zigbee | ble | white")
	antennas := flag.Int("antennas", 1, "AP receive antennas (MIMO extension)")
	impair := flag.Float64("impair", 0, "RF impairment severity in [0,1]: 0 = ideal front end, >0 applies the standard fault profile (DESIGN.md §5d)")
	cfoHz := flag.Float64("cfo", 0, "carrier frequency offset in Hz on the excitation air path (overrides -impair's CFO)")
	interfDuty := flag.Float64("interf-duty", 0, "co-channel interference duty cycle in [0,1) (overrides -impair's interference)")
	interfDBm := flag.Float64("interf-power", -70, "co-channel interference burst power in dBm (with -interf-duty)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text on ADDR/metrics and pprof on ADDR/debug/pprof/ while running (e.g. localhost:9090)")
	manifestOut := flag.String("manifest", "", "write a per-run manifest (config, seed, build info, metric snapshot) to this JSON file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of every packet's decode pipeline stages to this file (open in chrome://tracing or Perfetto)")
	flag.Parse()

	tcfg := backfi.TagConfig{
		SymbolRateHz:  *symrate,
		PreambleChips: *preamble,
		ID:            1,
	}
	switch strings.ToLower(*mod) {
	case "bpsk":
		tcfg.Mod = backfi.BPSK
	case "qpsk":
		tcfg.Mod = backfi.QPSK
	case "16psk", "psk16":
		tcfg.Mod = backfi.PSK16
	default:
		log.Fatalf("unknown modulation %q", *mod)
	}
	switch *coding {
	case "1/2":
		tcfg.Coding = backfi.Rate12
	case "2/3":
		tcfg.Coding = backfi.Rate23
	default:
		log.Fatalf("unknown coding rate %q", *coding)
	}

	cfg := backfi.DefaultLinkConfig(*distance)
	cfg.Tag = tcfg
	cfg.Seed = *seed

	var faults backfi.FaultProfile
	if *impair > 0 {
		faults = backfi.StandardFaultProfile(*impair)
	}
	if *cfoHz != 0 {
		faults.CFOHz = *cfoHz
	}
	if *interfDuty > 0 {
		faults.InterfDuty = *interfDuty
		faults.InterfPowerDBm = *interfDBm
	}
	if err := faults.Validate(); err != nil {
		log.Fatalf("fault profile: %v", err)
	}
	if faults.Enabled() {
		cfg.Faults = &faults
	}

	var reg *obs.Registry
	if *metricsAddr != "" || *manifestOut != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	if *metricsAddr != "" {
		_, bound, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("metrics-addr: %v", err)
		}
		log.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof/", bound, bound)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.TracerConfig{Seed: *seed, SampleEvery: 1})
	}
	var man *obs.Manifest
	if *manifestOut != "" {
		man = obs.NewManifest("backfi-sim", map[string]any{
			"distance": *distance,
			"mod":      *mod,
			"coding":   *coding,
			"symrate":  *symrate,
			"bytes":    *bytes,
			"packets":  *packets,
			"seed":     *seed,
			"impair":   *impair,
		})
	}

	ok := 0
	for p := 0; p < *packets; p++ {
		// Packet p keys its link (stream 0) and ambient waveform (1).
		pkt := rng.Mix(*seed, p)
		cfg.Seed = rng.Mix(pkt, 0)
		link, err := backfi.NewMIMOLink(cfg, *antennas)
		if err != nil {
			log.Fatal(err)
		}
		if tracer != nil {
			link.SetTrace(tracer.Head("sim", p))
		}
		res, err := runWith(link, *excitation, link.RandomPayload(*bytes), rng.Mix(pkt, 1))
		if err != nil {
			log.Fatal(err)
		}
		if res.PayloadOK {
			ok++
		}
		fmt.Printf("packet %d: decoded=%v\n", p, res.PayloadOK)
		fmt.Printf("  tag config          %v  (%.2f Mbps)\n", tcfg, tcfg.BitRate()/1e6)
		fmt.Printf("  excitation          %d samples (%.2f ms)\n", res.ExcitationSamples, float64(res.ExcitationSamples)/20e3)
		fmt.Printf("  self-interference   %.1f dBm → %.1f dBm (%.1f dB cancelled)\n",
			res.SICBeforeDBm, res.SICResidualDBm, res.SICCancellationDB)
		fmt.Printf("  expected SNR        %.1f dB per sample, %.1f dB post-MRC\n",
			res.ExpectedSNRdB, res.ExpectedMRCSNRdB)
		fmt.Printf("  measured SNR        %.1f dB post-MRC\n", res.MeasuredSNRdB)
		if per := res.Decode.PerAntennaSNRdB; per != nil {
			fmt.Printf("  per-antenna SNR     %.1f dB\n", per)
		}
		fmt.Printf("  preamble corr       %.3f (sync offset %+d samples)\n", res.PreambleCorr, res.SyncOffsetSamples)
		fmt.Printf("  raw coded BER       %.2e (%d/%d), Viterbi corrected %d bits\n",
			res.RawBER(), res.RawBitErrors, res.RawBits, res.ViterbiCorrectedBits)
	}
	fmt.Printf("\n%d/%d packets decoded\n", ok, *packets)
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		traces, spans, _ := tracer.Stats()
		log.Printf("wrote %s (%d traces, %d spans)", *traceOut, traces, spans)
	}
	if man != nil {
		man.Finish(reg)
		if err := man.WriteFile(*manifestOut); err != nil {
			log.Fatalf("manifest: %v", err)
		}
		log.Printf("wrote %s", *manifestOut)
	}
	if ok == 0 {
		os.Exit(1)
	}
}
