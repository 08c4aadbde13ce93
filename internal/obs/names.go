package obs

// Shared metric names. The per-stage pipeline metrics are emitted from
// several packages (sic, reader, core, parallel), so the names live
// here to keep one family per quantity; the "stage" label carries the
// pipeline position. See DESIGN.md §5c for the observability contract
// — what each metric means and how it maps to the paper's figures.
const (
	// MetricStageDuration is the per-stage wall-clock histogram
	// (label stage = excitation_build | channel_sim | decode_total |
	// sic_train | sic_analog_train | sic_digital_train | sic_cancel |
	// channel_estimate | timing_search | mrc | viterbi).
	MetricStageDuration = "backfi_stage_duration_seconds"
	// MetricStageFailures counts decode aborts by stage (label stage =
	// wake | wake_timing | sic_train | channel_estimate | preamble_room |
	// payload_room | frame_crc).
	MetricStageFailures = "backfi_stage_failures_total"

	// MetricSICResidual is the post-cancellation floor in dBm (the
	// paper's Fig. 7 residual, ≈ thermal floor when cancellation is
	// working).
	MetricSICResidual = "backfi_sic_residual_db"
	// MetricSICCancellation is the achieved suppression in dB
	// (paper: ≈78–80 dB).
	MetricSICCancellation = "backfi_sic_cancellation_db"

	// MetricPreambleCorr is the normalized tag-preamble correlation
	// (1 = perfect).
	MetricPreambleCorr = "backfi_preamble_correlation"
	// MetricTimingOffset is the |symbol-timing correction| in samples
	// found by the PN preamble search.
	MetricTimingOffset = "backfi_timing_offset_samples"
	// MetricViterbiCorrected is the per-frame count of coded bits the
	// Viterbi decoder corrected (hard decisions vs the re-encoded
	// decoded frame).
	MetricViterbiCorrected = "backfi_viterbi_corrected_bits"

	// MetricSNR is the per-packet SNR histogram in dB (label kind =
	// expected | expected_mrc | measured).
	MetricSNR = "backfi_snr_db"
	// MetricRawBER is the per-packet pre-FEC bit error rate.
	MetricRawBER = "backfi_raw_ber"

	// MetricPackets counts packet exchanges attempted; MetricPacketsOK
	// counts frames whose payload matched exactly.
	MetricPackets   = "backfi_packets_total"
	MetricPacketsOK = "backfi_packets_ok_total"

	// Parallel-engine metrics: per-work-item latency, per-worker busy
	// time per batch, batch wall time, and the configured worker count.
	MetricParallelItem    = "backfi_parallel_item_seconds"
	MetricParallelBusy    = "backfi_parallel_worker_busy_seconds"
	MetricParallelBatch   = "backfi_parallel_batch_seconds"
	MetricParallelWorkers = "backfi_parallel_workers"

	// MetricFigureDuration times one figure harness (label fig).
	MetricFigureDuration = "backfi_figure_duration_seconds"

	// MetricFaultsInjected counts impairments applied by the fault
	// layer (label kind = cfo | sco | phase_noise | adc_clip |
	// interference_burst | truncate | preamble_corrupt | ack_drop |
	// wake_drop).
	// Units vary by kind: per-packet applications for cfo/sco/
	// phase_noise/truncate/wake_drop, per-sample-component clips for
	// adc_clip, bursts for interference_burst, chips for
	// preamble_corrupt and frames for ack_drop.
	MetricFaultsInjected = "backfi_faults_injected_total"

	// Serving-path metrics (internal/serve, DESIGN.md §5e).
	// MetricServeJobs counts decode-job admission outcomes (label
	// outcome = admitted | rejected_full | rejected_draining |
	// deadline | done | error | panic).
	MetricServeJobs = "backfi_serve_jobs_total"
	// MetricServeQueueDepth is the per-shard queued-job gauge (label
	// shard).
	MetricServeQueueDepth = "backfi_serve_queue_depth"
	// MetricServeJobStage is the per-stage job latency histogram (label
	// stage = queue_wait | decode).
	MetricServeJobStage = "backfi_serve_job_stage_seconds"
	// MetricServeBatchJobs is the jobs-per-shard-batch histogram — the
	// shard utilization signal (batches near BatchMax mean the shard is
	// running saturated).
	MetricServeBatchJobs = "backfi_serve_batch_jobs"
	// MetricServeSessions gauges live sessions; MetricServeConns counts
	// accepted connections; MetricServeConnPanics counts connection
	// handlers recovered from a panic (panic isolation contract).
	MetricServeSessions   = "backfi_serve_sessions"
	MetricServeConns      = "backfi_serve_connections_total"
	MetricServeConnPanics = "backfi_serve_conn_panics_total"
	// MetricServeEvictions counts idle sessions reclaimed by the
	// per-shard TTL sweep (DESIGN.md §5i) — the decrement side of the
	// MetricServeSessions gauge under churn.
	MetricServeEvictions = "backfi_serve_session_evictions_total"
	// MetricServeDegraded gauges sessions the SIC-health watchdog is
	// currently holding in degraded mode (forced-robust configuration);
	// MetricServeDegradedTrans counts mode transitions (label dir =
	// enter | exit).
	MetricServeDegraded      = "backfi_serve_degraded_sessions"
	MetricServeDegradedTrans = "backfi_serve_degraded_transitions_total"
	// MetricServeFaultSwitches counts scripted fault-profile switches
	// the serving timeline applied to sessions;
	// MetricServeConfigSwitches counts rate-controller ladder moves
	// applied to serving sessions (adaptation + watchdog forcing).
	MetricServeFaultSwitches  = "backfi_serve_fault_switches_total"
	MetricServeConfigSwitches = "backfi_serve_config_switches_total"

	// MetricServeHandoffs counts handoff snapshots installed into this
	// node (label outcome = ok | rejected) — the receiving half of the
	// cluster migration path (DESIGN.md §5j).
	MetricServeHandoffs = "backfi_serve_handoffs_total"

	// Energy-aware polling metrics (DESIGN.md §5k). MetricTagLiveness
	// gauges the per-shard mean of the sessions' liveness estimates —
	// the EWMA probability that a poll finds the tag awake;
	// MetricServeDarkPolls counts polls answered tag_dark without
	// spending a decode (label reason = asleep | backoff).
	MetricTagLiveness    = "backfi_tag_liveness"
	MetricServeDarkPolls = "backfi_serve_dark_polls_total"

	// Wire-protocol metrics (DESIGN.md §5g). MetricServeWireBytes counts
	// bytes on the wire by direction (label dir = rx | tx) and protocol
	// (label proto = json | binary); MetricServeFrameCodec is the
	// per-frame encode/decode latency histogram (label op = encode |
	// decode, label proto as above); MetricServeConnsProto counts
	// accepted connections by negotiated protocol (label proto).
	MetricServeWireBytes  = "backfi_serve_wire_bytes_total"
	MetricServeFrameCodec = "backfi_serve_frame_codec_seconds"
	MetricServeConnsProto = "backfi_serve_connections_proto_total"

	// MetricLinkCache counts excitation-template pool lookups (label
	// outcome = hit | miss). A healthy steady-state session hits on
	// every frame; misses flag new burst shapes (tag-config churn)
	// forcing template builds.
	MetricLinkCache = "backfi_link_excitation_cache_total"

	// SLO metrics (DESIGN.md §5h). MetricSLOBurnRate is the rolling-
	// window error-budget burn rate (label slo = delivery | latency;
	// > 1 means the objective fails if the window persists);
	// MetricSLODeliveryRate and MetricSLOLatencyP99 are the raw window
	// quantities behind the burn rates.
	MetricSLOBurnRate     = "backfi_slo_burn_rate"
	MetricSLODeliveryRate = "backfi_slo_delivery_rate"
	MetricSLOLatencyP99   = "backfi_slo_latency_p99_seconds"
)

// AllMetricNames lists every metric family name declared above, so
// tests can pin the registry's naming invariants (uniqueness, valid
// Prometheus identifiers, stable prefix) in one place. Keep in sync
// when adding names.
var AllMetricNames = []string{
	MetricStageDuration,
	MetricStageFailures,
	MetricSICResidual,
	MetricSICCancellation,
	MetricPreambleCorr,
	MetricTimingOffset,
	MetricViterbiCorrected,
	MetricSNR,
	MetricRawBER,
	MetricPackets,
	MetricPacketsOK,
	MetricParallelItem,
	MetricParallelBusy,
	MetricParallelBatch,
	MetricParallelWorkers,
	MetricFigureDuration,
	MetricFaultsInjected,
	MetricServeJobs,
	MetricServeQueueDepth,
	MetricServeJobStage,
	MetricServeBatchJobs,
	MetricServeSessions,
	MetricServeEvictions,
	MetricServeConns,
	MetricServeConnPanics,
	MetricServeDegraded,
	MetricServeDegradedTrans,
	MetricServeFaultSwitches,
	MetricServeConfigSwitches,
	MetricServeHandoffs,
	MetricTagLiveness,
	MetricServeDarkPolls,
	MetricServeWireBytes,
	MetricServeFrameCodec,
	MetricServeConnsProto,
	MetricLinkCache,
	MetricSLOBurnRate,
	MetricSLODeliveryRate,
	MetricSLOLatencyP99,
}

// HelpStageDuration is shared by every MetricStageDuration registration
// so the family help text is identical regardless of which package
// registers the family first.
const HelpStageDuration = "Wall-clock seconds per decoder pipeline stage."

// HelpFaultsInjected is shared by every MetricFaultsInjected
// registration (one per fault kind) for the same reason.
const HelpFaultsInjected = "Impairments applied by the fault-injection layer, by kind."
