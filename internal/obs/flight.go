package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Black-box flight recorder (DESIGN.md §5h): a bounded lock-free ring
// of the structured events that explain an incident after the fact —
// configuration switches, watchdog trips, breaker state changes,
// redials, fault-timeline epochs, panics. The ring always records (it
// is cheap enough to leave on); the dump happens on anomaly — watchdog
// trip, connection panic, SIGTERM — into a manifest-adjacent JSON
// file, or on demand via the /debug/flightrecorder endpoint.
//
// Events carry an optional trace id linking them to the per-frame
// timeline of the frame that triggered them (a watchdog trip names the
// exact traced frame whose SIC residual crossed the threshold).

// Flight-recorder event kinds. Anomaly kinds (watchdog_trip,
// conn_panic, job_panic, sigterm) trigger the automatic dump.
const (
	FlightConfigSwitch  = "config_switch"
	FlightFaultSwitch   = "fault_switch"
	FlightWatchdogTrip  = "watchdog_trip"
	FlightWatchdogClear = "watchdog_clear"
	FlightBreakerOpen   = "breaker_open"
	FlightBreakerClose  = "breaker_close"
	FlightRedial        = "redial"
	FlightConnBroken    = "conn_broken"
	FlightConnPanic     = "conn_panic"
	FlightJobPanic      = "job_panic"
	FlightSigterm       = "sigterm"
	FlightSessionEvict  = "session_evict"
	// Cluster serving (DESIGN.md §5j): a node marked down by the
	// cluster client, a session re-routed to a survivor, and a handoff
	// snapshot installed on the receiving node. The three share the
	// failing frame's trace id, so one trace links kill → re-route →
	// handoff across processes.
	FlightNodeDown       = "node_down"
	FlightNodeUp         = "node_up"
	FlightReroute        = "reroute"
	FlightHandoffInstall = "handoff_install"
	// A snapshot the receiving node refused (bad_request): the session
	// continues there without the snapshot's state.
	FlightHandoffReject = "handoff_reject"
	// Energy-aware polling (DESIGN.md §5k): a session's tag ran its
	// supercap down and went dark, and the wake after it banked back up.
	// Both carry the trace id of the poll frame that observed the
	// transition, so a delivery gap in a trace links directly to the
	// energy episode that caused it (the watchdog-event pattern).
	FlightTagDark = "tag_dark"
	FlightTagWake = "tag_wake"
)

// FlightEvent is one recorded event. Seq is a global record counter
// (monotonic, so gaps reveal ring overwrites); Trace links the event
// to a per-frame trace when the triggering frame was sampled.
type FlightEvent struct {
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	Kind     string `json:"kind"`
	Session  string `json:"session,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Trace    uint64 `json:"trace,omitempty"`
}

// FlightRecorder is the ring. All methods are safe on a nil receiver
// (recording disabled) and safe for concurrent use.
type FlightRecorder struct {
	ring   []atomic.Pointer[FlightEvent]
	cursor atomic.Uint64
	now    func() int64 // UnixNano; injectable for tests

	dumpMu   sync.Mutex
	dumpPath atomic.Pointer[string]
}

// NewFlightRecorder builds a recorder holding the last capacity events
// (<= 0 means 1024).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &FlightRecorder{ring: make([]atomic.Pointer[FlightEvent], capacity)}
}

// SetDumpPath arms the automatic anomaly dump: every Anomaly rewrites
// path with the current ring contents (latest dump wins — the file is
// the state of the ring at the most recent anomaly).
func (f *FlightRecorder) SetDumpPath(path string) {
	if f == nil {
		return
	}
	f.dumpPath.Store(&path)
}

// Record appends an event. Lock-free; ~one atomic add + one store.
func (f *FlightRecorder) Record(kind, session, detail string, trace uint64) {
	if f == nil {
		return
	}
	seq := f.cursor.Add(1) - 1
	ev := FlightEvent{Seq: seq, UnixNano: f.unixNano(), Kind: kind, Session: session, Detail: detail, Trace: trace}
	f.ring[seq%uint64(len(f.ring))].Store(&ev)
}

// Anomaly records the event and, if a dump path is armed, dumps the
// ring to it. Use for the events that should leave a black box behind
// even if the process dies right after (watchdog trip, panic, SIGTERM).
func (f *FlightRecorder) Anomaly(kind, session, detail string, trace uint64) {
	if f == nil {
		return
	}
	f.Record(kind, session, detail, trace)
	if p := f.dumpPath.Load(); p != nil && *p != "" {
		_ = f.DumpFile(*p)
	}
}

func (f *FlightRecorder) unixNano() int64 {
	if f.now != nil {
		return f.now()
	}
	return time.Now().UnixNano()
}

// Events snapshots the ring in seq order.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.ring))
	for i := range f.ring {
		if p := f.ring[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Count returns how many snapshotted events have the given kind.
func (f *FlightRecorder) Count(kind string) int {
	n := 0
	for _, ev := range f.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// flightDump is the dump/WriteJSON document shape.
type flightDump struct {
	Recorded uint64        `json:"recorded_total"`
	Dropped  uint64        `json:"dropped"`
	Events   []FlightEvent `json:"events"`
}

func (f *FlightRecorder) dump() flightDump {
	if f == nil {
		return flightDump{Events: []FlightEvent{}}
	}
	evs := f.Events()
	total := f.cursor.Load()
	dropped := uint64(0)
	if n := uint64(len(f.ring)); total > n {
		dropped = total - n
	}
	return flightDump{Recorded: total, Dropped: dropped, Events: evs}
}

// WriteJSON writes the ring snapshot as indented JSON. Nil-safe.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.dump())
}

// DumpFile atomically rewrites path with the ring snapshot (write to
// a temp file in the same directory, then rename). Dumps serialize so
// concurrent anomalies cannot interleave a torn file.
func (f *FlightRecorder) DumpFile(path string) error {
	if f == nil {
		return nil
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	b, err := json.MarshalIndent(f.dump(), "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
