package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"react/internal/mcu"
	"react/internal/sim"
)

// traceEvent is one entry of the Chrome trace-event JSON array format
// (the JSON Perfetto and chrome://tracing load). Timestamps and durations
// are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level Chrome trace-event JSON object.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Timeline track layout: each cell is a Perfetto "process" whose name is
// the cell's label; inside it, device-state spans and checkpoint instants
// render on one thread and fast-forward parks on another, with the buffer
// capacitance as a per-process counter track.
const (
	tidDevice = 1
	tidEngine = 2
)

// SimTimeline records a simulation run as a Chrome trace-event timeline.
// It implements sim.Probe: device-state spans ("booting"/"on"/"restoring"/
// "backing"; off time renders as gaps), checkpoint backup/restore instants,
// buffer-capacitance counter samples, and fast-forward park spans.
//
// All timestamps come from the probe's sim-time arguments (tick
// arithmetic), never the wall clock, so a recorded timeline is
// bit-identical across runs; Flush sorts events into a deterministic order
// even when cells were stepped by concurrent workers. The event buffer is
// bounded: past the cap new events are counted in Dropped and discarded.
type SimTimeline struct {
	noProbe // takes no samples
	mu      sync.Mutex
	events  []traceEvent
	max     int
	labels  map[int]string
	// openState tracks each cell's current device-state span.
	openState map[int]openSpan
	dropped   atomic.Uint64
}

type openSpan struct {
	state mcu.State
	since float64
}

// DefaultTimelineEvents bounds a timeline recording (~100 B/event in
// memory, a few hundred bytes serialized).
const DefaultTimelineEvents = 1 << 20

// NewSimTimeline returns a recorder holding at most maxEvents events;
// non-positive means DefaultTimelineEvents.
func NewSimTimeline(maxEvents int) *SimTimeline {
	if maxEvents <= 0 {
		maxEvents = DefaultTimelineEvents
	}
	return &SimTimeline{
		max:       maxEvents,
		labels:    make(map[int]string),
		openState: make(map[int]openSpan),
	}
}

// Label names a cell's track (e.g. the buffer preset) before or during
// recording; unlabeled cells render as "cell N".
func (tl *SimTimeline) Label(cell int, name string) {
	tl.mu.Lock()
	tl.labels[cell] = name
	tl.mu.Unlock()
}

// Dropped reports how many events were discarded at the buffer cap.
func (tl *SimTimeline) Dropped() uint64 { return tl.dropped.Load() }

func (tl *SimTimeline) add(ev traceEvent) {
	tl.mu.Lock()
	if len(tl.events) >= tl.max {
		tl.mu.Unlock()
		tl.dropped.Add(1)
		return
	}
	tl.events = append(tl.events, ev)
	tl.mu.Unlock()
}

// usec converts sim-time seconds to trace-event microseconds.
func usec(t float64) float64 { return t * 1e6 }

// DeviceState implements sim.Probe: close the previous state's span (off
// renders as a gap, not a span) and open the new one.
func (tl *SimTimeline) DeviceState(cell int, t float64, from, to mcu.State) {
	tl.mu.Lock()
	open, ok := tl.openState[cell]
	if !ok {
		open = openSpan{state: from}
	}
	tl.openState[cell] = openSpan{state: to, since: t}
	var ev *traceEvent
	if open.state != mcu.Off && len(tl.events) < tl.max {
		tl.events = append(tl.events, traceEvent{
			Name: open.state.String(), Ph: "X",
			Ts: usec(open.since), Dur: usec(t) - usec(open.since),
			Pid: cell + 1, Tid: tidDevice,
		})
		ev = &tl.events[len(tl.events)-1]
	}
	tl.mu.Unlock()
	if open.state != mcu.Off && ev == nil {
		tl.dropped.Add(1)
	}
}

// Checkpoint implements sim.Probe: instant markers for completed backup
// and restore bursts.
func (tl *SimTimeline) Checkpoint(cell int, t float64, backups, restores int) {
	if backups > 0 {
		tl.add(traceEvent{
			Name: "ckpt-backup", Ph: "i", Ts: usec(t), Pid: cell + 1, Tid: tidDevice,
			S: "t", Args: map[string]any{"completed": backups},
		})
	}
	if restores > 0 {
		tl.add(traceEvent{
			Name: "ckpt-restore", Ph: "i", Ts: usec(t), Pid: cell + 1, Tid: tidDevice,
			S: "t", Args: map[string]any{"completed": restores},
		})
	}
}

// BufferReconfig implements sim.Probe: a counter-track sample of the new
// equivalent capacitance.
func (tl *SimTimeline) BufferReconfig(cell int, t float64, c float64) {
	tl.add(traceEvent{
		Name: "capacitance", Ph: "C", Ts: usec(t), Pid: cell + 1, Tid: tidDevice,
		Args: map[string]any{"farads": c},
	})
}

// FastForward implements sim.Probe: the dead-time park as a span on the
// engine track.
func (tl *SimTimeline) FastForward(cell int, fromT, toT float64) {
	tl.add(traceEvent{
		Name: "fast-forward", Ph: "X",
		Ts: usec(fromT), Dur: usec(toT) - usec(fromT),
		Pid: cell + 1, Tid: tidEngine,
	})
}

// Retire implements sim.Probe: close any open state span and mark the end
// of the cell's run.
func (tl *SimTimeline) Retire(cell int, t float64) {
	tl.DeviceState(cell, t, mcu.Off, mcu.Off) // closes the open span, opens an off gap
	tl.add(traceEvent{
		Name: "retire", Ph: "i", Ts: usec(t), Pid: cell + 1, Tid: tidDevice, S: "t",
	})
}

var _ sim.Probe = (*SimTimeline)(nil)

// Flush writes the recording as Chrome trace-event JSON and resets
// nothing (it may be called repeatedly as the run grows). Events are
// sorted by (ts, pid, tid, name) so output does not depend on worker
// interleaving; per-cell process_name metadata precedes them.
func (tl *SimTimeline) Flush(w io.Writer) error {
	tl.mu.Lock()
	events := append([]traceEvent(nil), tl.events...)
	cells := make(map[int]string, len(tl.labels))
	for cell, name := range tl.labels {
		cells[cell] = name
	}
	tl.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		//lint:reactlint-ignore dtarith exact identity IS the invariant: equal-tick events share one bit-identical ts and must fall through to the pid/tid/name tiebreak
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Name < b.Name
	})

	present := make(map[int]bool, len(cells))
	for cell := range cells {
		present[cell] = true
	}
	for i := range events {
		present[events[i].Pid-1] = true
	}
	pids := make([]int, 0, len(present))
	for cell := range present {
		pids = append(pids, cell)
	}
	sort.Ints(pids)
	meta := make([]traceEvent, 0, 3*len(pids))
	for _, cell := range pids {
		name, ok := cells[cell]
		if !ok {
			name = "cell " + strconv.Itoa(cell)
		}
		meta = append(meta,
			traceEvent{Name: "process_name", Ph: "M", Pid: cell + 1, Tid: tidDevice,
				Args: map[string]any{"name": name}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: cell + 1, Tid: tidDevice,
				Args: map[string]any{"name": "device"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: cell + 1, Tid: tidEngine,
				Args: map[string]any{"name": "engine"}},
		)
	}

	out := traceFile{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	}
	if d := tl.Dropped(); d > 0 {
		out.OtherData = map[string]any{"dropped_events": d}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
