// Package backfi is a pure-Go reproduction of "BackFi: High Throughput
// WiFi Backscatter" (Bharadia, Joshi, Kotaru, Katti — SIGCOMM 2015).
//
// BackFi lets a battery-free IoT tag piggyback megabit-class uplink
// data on ordinary WiFi transmissions: the tag phase-modulates the
// reflection of the AP's own packet, and the AP — transmitting at the
// same time — cancels its self-interference, estimates the combined
// two-way tag channel, and decodes the slow tag symbols by
// maximal-ratio combining the many WiFi-rate samples inside each one.
//
// This package is the public facade over the simulator's subsystems:
//
//   - Link / LinkConfig: an end-to-end BackFi exchange (WiFi excitation
//     → channels → tag → self-interference cancellation → MRC decode).
//   - TagConfig: the tag's PSK order, code rate, and switching rate
//     (the 36 operating points of the paper's Fig. 7).
//   - ChannelConfig: the calibrated testbed model (placement, path
//     loss, fading, TX hardware error).
//   - Evaluate / Sweep / BestThroughput / MinREPBAtThroughput: the
//     paper's rate-adaptation policies over Monte-Carlo feasibility.
//   - REPB / EPB: the tag energy model fitted to the paper's Fig. 7.
//
// The experiment harnesses that regenerate every table and figure of
// the paper's evaluation live in internal/experiments and are exposed
// through cmd/backfi-bench and the benchmarks in bench_test.go.
package backfi

import (
	"net/http"

	"backfi/internal/adapt"
	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/mac"
	"backfi/internal/obs"
	"backfi/internal/serve"
	"backfi/internal/tag"
)

// Re-exported configuration and result types.
type (
	// LinkConfig assembles one BackFi link.
	LinkConfig = core.LinkConfig
	// Link is a realized deployment: K tag placements around one AP
	// with N receive chains, plus the reader. NewLink, NewMIMOLink and
	// NewMultiTagLink build it.
	Link = core.Link
	// PacketResult reports one end-to-end packet exchange.
	PacketResult = core.PacketResult
	// Feasibility summarizes Monte-Carlo trials of one configuration.
	Feasibility = core.Feasibility
	// TagConfig selects the tag's transmission parameters.
	TagConfig = tag.Config
	// TagModulation is the tag's PSK order.
	TagModulation = tag.Modulation
	// ChannelConfig describes one placement of AP, tag and environment.
	ChannelConfig = channel.Config
	// CodeRate is a convolutional code rate (1/2, 2/3, 3/4).
	CodeRate = fec.CodeRate
	// FaultProfile describes a deterministic RF-impairment and
	// fault-injection profile (DESIGN.md §5d). Set a pointer to one on
	// LinkConfig.Faults; nil leaves the link bit-identical to an
	// unfaulted build.
	FaultProfile = fault.Profile
)

// ErrTagNoWake reports that the tag's envelope detector did not fire
// (or fired too late) for a packet — the expected outcome at the range
// edge, distinguishable via errors.Is from genuine pipeline failures.
var ErrTagNoWake = core.ErrTagNoWake

// StandardFaultProfile scales every impairment class together with one
// severity knob in [0,1]: 0 is the paper's ideal front end, 1 is a
// hostile deployment (strong CFO, phase noise, coarse ADC, bursty
// co-channel interference, packet faults).
func StandardFaultProfile(severity float64) FaultProfile { return fault.Standard(severity) }

// Tag modulation constants.
const (
	BPSK  = tag.BPSK
	QPSK  = tag.QPSK
	PSK16 = tag.PSK16
)

// Code rate constants.
const (
	Rate12 = fec.Rate12
	Rate23 = fec.Rate23
	Rate34 = fec.Rate34
)

// Link-layer timing constants of paper Fig. 4.
const (
	// SilentSamples is the 16 µs silent period (20 MHz samples).
	SilentSamples = tag.SilentSamples
	// DefaultPreambleChips is the standard 32 µs tag preamble.
	DefaultPreambleChips = tag.DefaultPreambleChips
	// ExtendedPreambleChips is the 96 µs variant of paper Fig. 8.
	ExtendedPreambleChips = tag.ExtendedPreambleChips
)

// NewLink draws a placement realization and builds the endpoints.
func NewLink(cfg LinkConfig) (*Link, error) { return core.NewLink(cfg) }

// DefaultLinkConfig returns the paper's standard operating point at
// the given AP–tag distance.
func DefaultLinkConfig(distanceM float64) LinkConfig { return core.DefaultLinkConfig(distanceM) }

// DefaultChannelConfig returns the calibrated testbed model.
func DefaultChannelConfig(distanceM float64) ChannelConfig { return channel.DefaultConfig(distanceM) }

// StandardConfigs enumerates the paper's 36 tag configurations.
func StandardConfigs(preambleChips, id int) []TagConfig {
	return core.StandardConfigs(preambleChips, id)
}

// Evaluate runs Monte-Carlo packet trials of one configuration.
func Evaluate(chanCfg ChannelConfig, tcfg TagConfig, trials, payloadBytes int, seed int64) (Feasibility, error) {
	return core.Evaluate(chanCfg, tcfg, core.DefaultLinkConfig(chanCfg.DistanceM).Reader, nil, trials, payloadBytes, seed, 0)
}

// Sweep evaluates every configuration at one placement.
func Sweep(chanCfg ChannelConfig, cfgs []TagConfig, trials, payloadBytes int, seed int64) ([]Feasibility, error) {
	return core.Sweep(chanCfg, cfgs, core.DefaultLinkConfig(chanCfg.DistanceM).Reader, trials, payloadBytes, seed, 0)
}

// BestThroughput returns the fastest decodable configuration.
func BestThroughput(results []Feasibility) (Feasibility, bool) {
	return core.BestThroughput(results)
}

// MinREPBAtThroughput returns the cheapest configuration achieving a
// target bit rate — the paper's rate-adaptation policy.
func MinREPBAtThroughput(results []Feasibility, minBps float64) (Feasibility, bool) {
	return core.MinREPBAtThroughput(results, minBps)
}

// REPB returns the relative energy per bit of a tag configuration
// (paper Fig. 7; reference = BPSK 1/2 at 1 Msym/s).
func REPB(mod TagModulation, coding CodeRate, symbolRateHz float64) (float64, error) {
	return energy.REPB(mod, coding, symbolRateHz)
}

// EPB returns the absolute modeled energy per bit in joules.
func EPB(mod TagModulation, coding CodeRate, symbolRateHz float64) (float64, error) {
	return energy.EPB(mod, coding, symbolRateHz)
}

// NewMIMOLink draws a placement with nrx AP receive antennas (paper
// Sec. 7): the extra antennas add spatial diversity on top of the
// temporal MRC gain. It is a Link like any other; its results carry
// per-antenna diagnostics in Decode.PerAntennaSNRdB and
// Decode.PerAntennaSIC.
func NewMIMOLink(cfg LinkConfig, nrx int) (*Link, error) {
	return core.NewMIMOLink(cfg, nrx)
}

// Session layer: one placement with slowly evolving channels and
// stop-and-wait ARQ — what an application actually talks to.
type (
	// Session is a long-lived BackFi connection.
	Session = core.Session
	// SessionStats summarizes a session's history.
	SessionStats = core.SessionStats
)

// NewSession opens a session at one placement; coherenceRho is the
// packet-to-packet channel correlation and maxRetries the ARQ budget.
func NewSession(cfg LinkConfig, coherenceRho float64, maxRetries int) (*Session, error) {
	return core.NewSession(cfg, coherenceRho, maxRetries)
}

// NewMultiTagLink places one tag per distance (IDs 0..n-1) around one
// AP: Link.Poll addresses one tag by its wake sequence, Link.RunSlot
// lights a wake group and decodes the collided reflections jointly.
func NewMultiTagLink(cfg LinkConfig, distances []float64) (*Link, error) {
	return core.NewMultiTagLink(cfg, distances)
}

// Multi-tag MAC and collision-aware serving (DESIGN.md §5i): a
// deterministic slotted arbiter schedules tag groups, one excitation
// lights a whole group, and the reader jointly decodes the colliding
// reflections by successive cancellation.
type (
	// TagMACConfig sizes the deterministic slotted arbiter.
	TagMACConfig = mac.TagMACConfig
	// TagMAC maps a frame index to the tag group polled in that slot —
	// a pure function of (seed, frame), so every shard agrees.
	TagMAC = mac.TagMAC
	// MultiTagSessionConfig shapes one multi-tag serving session.
	MultiTagSessionConfig = core.MultiTagSessionConfig
	// MultiTagSession runs a fixed tag group slot by slot, decoding
	// every collided member of each excitation jointly.
	MultiTagSession = core.MultiTagSession
	// MultiTagStats aggregates a session's slot outcomes.
	MultiTagStats = core.MultiTagStats
	// SlotResult is one jointly decoded slot.
	SlotResult = core.SlotResult
	// SlotPool shares immutable excitation templates, a pure function
	// of the burst shape, across sessions; it retains at most 32 MiB
	// of them, least recently used first out.
	SlotPool = core.SlotPool
)

// NewTagMAC builds the deterministic slotted arbiter.
func NewTagMAC(cfg TagMACConfig) (*TagMAC, error) { return mac.NewTagMAC(cfg) }

// NewMultiTagSession realizes a multi-tag deployment: cfg.Tags polled
// tags (plus an impostor when configured) on a geometric range ladder,
// all sharing one wake group.
func NewMultiTagSession(cfg MultiTagSessionConfig) (*MultiTagSession, error) {
	return core.NewMultiTagSession(cfg)
}

// NewSlotPool builds an empty excitation-template pool. The seed has
// no effect (templates depend on no seed); it is kept for callers
// written against earlier builds.
func NewSlotPool(seed int64) *SlotPool { return core.NewSlotPool(seed) }

// Observability (DESIGN.md §5c): a registry set on LinkConfig.Obs
// collects per-stage durations, SIC/decoder health, and SNR/BER
// histograms from every packet the link runs. Metrics are write-only
// observers — enabling them never changes link output — and a nil
// registry costs nothing.
type (
	// MetricsRegistry aggregates counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// RunManifest records one run's config, build and final metrics.
	RunManifest = obs.Manifest
)

// NewMetricsRegistry creates an empty registry to set on
// LinkConfig.Obs (or experiments.Options.Obs via cmd/backfi-bench).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics exposes the registry on addr: Prometheus text on
// /metrics, JSON on /metrics.json, and net/http/pprof under
// /debug/pprof/. It returns the running server and the bound address
// (useful with a ":0" port).
func ServeMetrics(addr string, r *MetricsRegistry) (*http.Server, string, error) {
	return obs.Serve(addr, r)
}

// NewRunManifest starts a per-run provenance record (build info,
// config, timed phases, final metric snapshot).
func NewRunManifest(command string, config map[string]any) *RunManifest {
	return obs.NewManifest(command, config)
}

// Serving layer (DESIGN.md §5e): a long-running reader daemon that
// decodes many concurrent tag sessions over a length-prefixed TCP
// protocol, sharding session state by id with bounded queues, typed
// backpressure, per-job deadlines and graceful drain. The daemon and a
// closed-loop load generator ship as cmd/backfi-readerd and
// cmd/backfi-loadgen.
type (
	// ReaderConfig assembles one reader daemon.
	ReaderConfig = serve.Config
	// ReaderServer is a running reader daemon.
	ReaderServer = serve.Server
	// ReaderClient is a connection to a reader daemon.
	ReaderClient = serve.Client
	// ReaderResponse is one daemon reply (decode outcome or stats).
	ReaderResponse = serve.Response
)

// Typed serving rejections, checked with errors.Is on client errors: a
// full shard queue, a draining daemon, an expired per-job deadline.
var (
	ErrReaderQueueFull = serve.ErrQueueFull
	ErrReaderDraining  = serve.ErrDraining
	ErrReaderDeadline  = serve.ErrDeadline
)

// NewReaderServer builds a reader daemon; call Start on the result to
// listen and Shutdown to drain it.
func NewReaderServer(cfg ReaderConfig) (*ReaderServer, error) { return serve.NewServer(cfg) }

// DialReader connects a client to a reader daemon.
func DialReader(addr string) (*ReaderClient, error) { return serve.Dial(addr) }

// Robustness layer (DESIGN.md §5f): closed-loop link adaptation over
// the standard configuration ladder, scripted fault timelines for
// reproducible soak runs, deterministic ARQ backoff accounting, and a
// self-healing reader client (I/O deadlines, seeded-jitter redial
// backoff, per-session circuit breaking). The chaos harness that
// exercises all of it end to end ships as cmd/backfi-chaos.
type (
	// AdaptConfig tunes the rate controller's hysteresis (zero-valued
	// fields take package defaults).
	AdaptConfig = adapt.Config
	// AdaptObservation is one packet outcome fed to the controller.
	AdaptObservation = adapt.Observation
	// AdaptSwitch records one controller ladder move.
	AdaptSwitch = adapt.Switch
	// RateController walks the configuration ladder from packet
	// observations — a pure, deterministic state machine.
	RateController = adapt.Controller
	// BackoffPolicy adds deterministic virtual-time backoff between a
	// session's ARQ retries (accounted, never slept).
	BackoffPolicy = core.BackoffPolicy
	// FaultTimeline schedules fault-profile switches at frame indices.
	FaultTimeline = fault.Timeline
	// FaultTimelineStep is one scheduled switch.
	FaultTimelineStep = fault.TimelineStep
	// ReaderClientConfig tunes the self-healing reader client; the zero
	// value reproduces the legacy fragile client.
	ReaderClientConfig = serve.ClientConfig
	// ReaderClientHealth snapshots a client's self-healing counters.
	ReaderClientHealth = serve.ClientHealth
)

// Self-healing client errors, checked with errors.Is: a connection
// that broke mid-call (the underlying cause stays matchable through
// it), a call shed by an open per-session circuit, use after Close.
var (
	ErrReaderConnBroken   = serve.ErrConnBroken
	ErrReaderBreakerOpen  = serve.ErrBreakerOpen
	ErrReaderClientClosed = serve.ErrClientClosed
)

// NewRateController builds a controller over the given ladder,
// starting at start (which must be on the ladder).
func NewRateController(cfg AdaptConfig, ladder []TagConfig, start TagConfig) (*RateController, error) {
	return adapt.NewController(cfg, ladder, start)
}

// AdaptLadder orders configurations for the controller: ascending bit
// rate, deterministic tie-break.
func AdaptLadder(cfgs []TagConfig) []TagConfig { return adapt.Ladder(cfgs) }

// ParseFaultTimeline parses "frame:severity[,frame:severity...]" into
// a timeline of Standard profiles (severity 0 = faults off).
func ParseFaultTimeline(spec string) (*FaultTimeline, error) { return fault.ParseTimeline(spec) }

// NewAdaptiveSession opens a session whose tag configuration is driven
// by a rate controller over the standard ladder (restricted to symbol
// rates ≥ minSymbolRateHz when non-zero), starting at cfg.Tag.
func NewAdaptiveSession(cfg LinkConfig, coherenceRho float64, maxRetries int, actrl AdaptConfig, minSymbolRateHz float64) (*Session, error) {
	return core.NewAdaptiveSession(cfg, coherenceRho, maxRetries, actrl, minSymbolRateHz)
}

// DialReaderClient connects with the self-healing configuration.
func DialReaderClient(cfg ReaderClientConfig) (*ReaderClient, error) { return serve.DialClient(cfg) }

// Observability, continued (DESIGN.md §5h): per-frame distributed
// tracing with deterministic head sampling, a black-box flight recorder
// for rare serving events, and rolling-window SLO burn-rate tracking.
// All three follow the registry's contract — pure observers, nil-safe,
// and free when disabled.
type (
	// Tracer samples frames into a bounded in-memory span ring;
	// exported traces open in chrome://tracing or Perfetto.
	Tracer = obs.Tracer
	// TracerConfig sets the sampling seed, rate, and ring capacity.
	TracerConfig = obs.TracerConfig
	// TraceCtx is one frame's sampling decision, threaded through the
	// serve and decode stages. The zero value records nothing.
	TraceCtx = obs.TraceCtx
	// TraceEvent is one recorded span.
	TraceEvent = obs.TraceEvent
	// FlightRecorder keeps the last N structured serving events and can
	// auto-dump them to a file when an anomaly is recorded.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one recorded flight event.
	FlightEvent = obs.FlightEvent
	// SLOTracker evaluates delivery-rate and p99-latency objectives
	// over a rolling window and reports burn rates against them.
	SLOTracker = obs.SLO
	// SLOTrackerConfig sets the window and objectives (zero-valued
	// fields take package defaults).
	SLOTrackerConfig = obs.SLOConfig
	// SLOSnapshot is one point-in-time SLO evaluation.
	SLOSnapshot = obs.SLOSnapshot
	// OpsServeOpts assembles the ops HTTP surface: metrics, trace and
	// flight-recorder dumps, health and readiness.
	OpsServeOpts = obs.ServeOpts
)

// NewTracer builds a span tracer; set it on ReaderConfig.Tracer and
// ReaderClientConfig.Tracer (a client and daemon sharing seed and rate
// derive identical per-frame trace ids).
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// NewFlightRecorder builds a flight recorder holding the last capacity
// events (0 = default).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.NewFlightRecorder(capacity) }

// NewSLOTracker builds a rolling-window SLO evaluator; set it on
// ReaderConfig.SLO.
func NewSLOTracker(cfg SLOTrackerConfig) *SLOTracker { return obs.NewSLO(cfg) }

// ServeOps exposes the full ops surface on addr: everything
// ServeMetrics serves, plus /debug/trace, /debug/flightrecorder,
// /healthz and /readyz. It returns the running server and the bound
// address.
func ServeOps(addr string, o OpsServeOpts) (*http.Server, string, error) {
	return obs.ServeOps(addr, o)
}
