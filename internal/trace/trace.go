// Package trace is the observability layer of the virtual cluster: a typed,
// per-rank event log stamped on the deterministic virtual clock.
//
// Every communication or compute primitive the cluster charges to a rank's
// Stats is mirrored here as an interval Event carrying the exact Stats
// deltas it applied, in program order. Because the virtual clock is a pure
// function of the inputs, a trace is a replayable artifact: identical seeds
// produce byte-identical exported traces, and folding the per-event deltas
// of a rank reproduces its end-of-run Stats bit-for-bit — the test suite
// uses both properties as correctness oracles for the cluster simulator.
//
// The package also ships a Chrome trace_event JSON exporter (chrome.go,
// loadable in Perfetto or chrome://tracing) and analysis passes over rank
// timelines (analyze.go): per-phase rollups, per-step load-imbalance
// statistics, and critical-path extraction.
package trace

// Kind classifies an event.
type Kind uint8

// Event kinds, one per cluster accounting site.
const (
	// KindCompute is a Rank.Compute charge.
	KindCompute Kind = iota
	// KindCommCharge is a Rank.ChargeComm charge (modelled transports such
	// as the ring allreduce of the parallel sort).
	KindCommCharge
	// KindSend is the sender side of a point-to-point message (CPU
	// overhead interval; the transfer is realized at the receiver).
	KindSend
	// KindRecv is the receiver side: the wait until arrival, split into
	// residual communication and synchronization in the delta.
	KindRecv
	// KindGetIssue is the zero-duration issue of a non-blocking one-sided
	// get.
	KindGetIssue
	// KindGetWait is the completing Wait of a one-sided get: the interval
	// covers only the residual (unmasked) time, while the delta carries the
	// full transfer cost, so masking is directly visible as Dur ≪ the
	// delta's TotalCommSec.
	KindGetWait
	// KindExpose is the zero-duration publication of an RMA window.
	KindExpose
	// KindCollective is a collective rendezvous (barrier, allreduce, bcast,
	// gather, allgather, alltoallv, split) including its entry skew.
	KindCollective
	// KindDetect is a survivor's failure-detection stall: the wait from its
	// current clock to crashTime+DetectSec, charged as synchronization.
	KindDetect
	// KindCrash marks the instant a rank's own injected failure fires.
	KindCrash
	// KindMark is an engine-level annotation (checkpoint written, state
	// restored, recovery attempt started).
	KindMark
	// KindIdle is a scheduled idle stall (Rank.IdleUntil): the wait from a
	// rank's current clock to an absolute virtual dispatch time, charged as
	// synchronization. The serving layer uses it to park a rank until a
	// batch's dispatch instant.
	KindIdle
)

// kindNames is indexed by Kind; these strings are the wire format of the
// Chrome exporter's "kind" argument and must stay stable.
var kindNames = [...]string{
	KindCompute:    "compute",
	KindCommCharge: "comm-charge",
	KindSend:       "send",
	KindRecv:       "recv",
	KindGetIssue:   "get-issue",
	KindGetWait:    "get-wait",
	KindExpose:     "expose",
	KindCollective: "collective",
	KindDetect:     "detect",
	KindCrash:      "crash",
	KindMark:       "mark",
	KindIdle:       "idle",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// StatDelta is the exact cluster.Stats mutation an event applied. Folding a
// rank's deltas in program order reproduces its Stats field-for-field,
// bit-for-bit (the same float64 values are added in the same order).
type StatDelta struct {
	ComputeSec       float64
	TotalCommSec     float64
	ResidualCommSec  float64
	SyncWaitSec      float64
	BytesSent        int64
	BytesReceived    int64
	RMABytesReceived int64
	Messages         int64
	RMARetries       int64
	RMAFailures      int64
}

// Add accumulates o into d.
func (d *StatDelta) Add(o StatDelta) {
	d.ComputeSec += o.ComputeSec
	d.TotalCommSec += o.TotalCommSec
	d.ResidualCommSec += o.ResidualCommSec
	d.SyncWaitSec += o.SyncWaitSec
	d.BytesSent += o.BytesSent
	d.BytesReceived += o.BytesReceived
	d.RMABytesReceived += o.RMABytesReceived
	d.Messages += o.Messages
	d.RMARetries += o.RMARetries
	d.RMAFailures += o.RMAFailures
}

// IsZero reports whether the delta carries no accounting at all.
func (d StatDelta) IsZero() bool {
	return d == StatDelta{}
}

// Event is one interval (or instant, Dur == 0) on a rank's virtual-clock
// timeline.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Name identifies the operation: a message tag, window name, collective
	// operation, or engine annotation.
	Name string
	// Phase is the engine phase active when the event was recorded (load,
	// sort, scan, checkpoint, report, ...); empty outside any phase.
	Phase string
	// Step is the transport-loop step active when the event was recorded
	// (the paper's s in 0..p-1); -1 outside any step.
	Step int
	// Peer is the other rank involved (send destination, message source,
	// window owner, detected failed rank); -1 when there is none.
	Peer int
	// Bytes counts payload bytes moved by the event.
	Bytes int64
	// PhID and Seq identify the collective rendezvous round this event
	// participated in (KindCollective only): PhID names the phaser and Seq
	// its round counter. Events of the same round across ranks share both,
	// which is how critical-path extraction jumps between timelines.
	PhID string
	Seq  int64
	// Note is a free-form annotation: "blocking" on an unmasked get, the
	// failure cause on a crash, the error on an abandoned wait.
	Note string
	// Start is the rank's virtual clock when the operation began; Dur the
	// virtual time the operation advanced that clock (0 for instants and
	// fully masked waits).
	Start float64
	Dur   float64
	// Delta is the exact Stats mutation the event applied.
	Delta StatDelta
}

// End returns the event's end time on the virtual clock.
func (e Event) End() float64 { return e.Start + e.Dur }

// RankLog is one rank's append-only event log. It is owned by the rank's
// goroutine for the duration of a run (the same single-writer discipline as
// cluster.Rank) and read only after the run completes.
type RankLog struct {
	rank   int
	phase  string
	step   int
	events []Event
}

// SetPhase tags subsequent events with an engine phase name.
func (l *RankLog) SetPhase(phase string) { l.phase = phase }

// SetStep tags subsequent events with a transport-loop step (-1 clears).
func (l *RankLog) SetStep(step int) { l.step = step }

// Append stamps ev with the current phase and step and appends it,
// returning a pointer to the stored event so the caller can attach
// late-arriving byte counts. The pointer is invalidated by the next Append.
//
//pepvet:hotpath
func (l *RankLog) Append(ev Event) *Event {
	ev.Phase = l.phase
	ev.Step = l.step
	l.events = append(l.events, ev)
	return &l.events[len(l.events)-1]
}

// Last returns the most recently appended event (nil when empty). The
// pointer is invalidated by the next Append.
func (l *RankLog) Last() *Event {
	if len(l.events) == 0 {
		return nil
	}
	return &l.events[len(l.events)-1]
}

// Len returns the number of recorded events.
func (l *RankLog) Len() int { return len(l.events) }

// Recorder owns the per-rank logs of one machine.
type Recorder struct {
	logs []*RankLog
}

// NewRecorder creates a recorder for p ranks.
func NewRecorder(p int) *Recorder {
	rec := &Recorder{logs: make([]*RankLog, p)}
	for i := range rec.logs {
		rec.logs[i] = &RankLog{rank: i, step: -1}
	}
	return rec
}

// Rank returns rank i's log.
func (rec *Recorder) Rank(i int) *RankLog { return rec.logs[i] }

// Reset clears every rank's log, phase, and step (Machine.Reset).
func (rec *Recorder) Reset() {
	for _, l := range rec.logs {
		l.events = nil
		l.phase = ""
		l.step = -1
	}
}

// Snapshot copies the current logs into an immutable Attempt. Call only
// when no rank goroutine is running (after Machine.Run returns).
func (rec *Recorder) Snapshot(label string) *Attempt {
	a := &Attempt{Label: label, Ranks: len(rec.logs), Events: make([][]Event, len(rec.logs))}
	for i, l := range rec.logs {
		if len(l.events) == 0 {
			continue
		}
		evs := make([]Event, len(l.events))
		copy(evs, l.events)
		a.Events[i] = evs
	}
	return a
}

// Attempt is the immutable trace of one machine run: Events[r] is rank r's
// timeline in program order. The checkpointed engine and RunWithRecovery
// produce one Attempt per retry, so a chaos trace shows the crash, the
// survivors' detection stalls, and the re-partitioned re-run side by side.
type Attempt struct {
	// Label describes the run (engine, rank count, attempt number).
	Label string
	// Ranks is the machine size of this attempt.
	Ranks int
	// Events holds each rank's timeline; a rank with no events is nil.
	Events [][]Event
}

// Trace is a full run artifact: one or more attempts.
type Trace struct {
	Attempts []*Attempt
}
