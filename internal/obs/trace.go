package obs

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// Kind classifies a trace event. The chained-vs-ADELIE_NOCHAIN
// equivalence test compares event sequences with KindRound excluded:
// round summaries carry chained-block counts, which are a host-side
// execution detail, while every other kind derives from simulated state
// the cross-mode gate already proves equal.
type Kind uint8

const (
	// KindRound is a per-lane round retire summary (blocks retired,
	// chain-link follows, busy cycles for the lane's op this round).
	KindRound Kind = iota + 1
	// KindTLB is a per-lane TLB refill summary (misses this round).
	// Refills — not hits — so the sequence is invariant under trace
	// linking, which only ever skips lookups that were hits.
	KindTLB
	// KindIRQRaise marks a device asserting a vector line (stamped with
	// the raise clock, which precedes the delivering barrier).
	KindIRQRaise
	// KindISR is the deliver→ISR-done span on the routed vCPU's track.
	KindISR
	// KindRerand is a re-randomization epoch begin→end span carrying
	// the moved-module list.
	KindRerand
	// KindDev is a device counter delta (NVMe submit/complete, NIC
	// rings) sampled at a round barrier.
	KindDev
	// KindMM marks memory-system events: machine fork attach and
	// copy-on-write detach summaries.
	KindMM
)

// Arg is one event argument. String and signed arguments (ArgS/ArgI)
// carry a pre-rendered JSON value in Val; unsigned arguments (ArgU) —
// the hot emit path — carry the raw number and render at export, so
// emission never calls strconv. Either way export is deterministic
// concatenation and the struct stays comparable for equality tests.
type Arg struct {
	Key string
	Val string // pre-rendered JSON value; used when Num is false
	U   uint64 // raw unsigned value, rendered at export when Num
	Num bool
}

// ArgU records an unsigned argument (rendered lazily at export).
func ArgU(key string, v uint64) Arg { return Arg{Key: key, U: v, Num: true} }

// ArgI renders a signed argument.
func ArgI(key string, v int64) Arg { return Arg{Key: key, Val: strconv.FormatInt(v, 10)} }

// ArgS renders a string argument.
func ArgS(key, v string) Arg { return Arg{Key: key, Val: strconv.Quote(v)} }

// Event is one trace record. Clk and Dur are in simulated cycles of the
// machine's virtual clock; Track is the thread id within the machine's
// process (vCPU index, or a device/actor track allocated by Track).
type Event struct {
	Clk   uint64
	Dur   uint64 // 0 = instant; >0 = complete span ("X")
	Track int
	Kind  Kind
	Name  string
	Args  []Arg
	seq   uint64 // staging order within the emitting lane buffer
}

// maxEventsPerMachine bounds a tracer's retained events so a long
// measurement cannot exhaust host memory; overflow is counted, and the
// count is exported in the trace header. The cutoff is deterministic
// because emission order is.
const maxEventsPerMachine = 1 << 20

// Lane is a single-producer event buffer. Exactly one goroutine appends
// to a Lane (the engine's barrier passes, interrupt window included, run
// on one goroutine), so no locking is needed — the tracer merges and
// clears all lanes at the next barrier, when every producer is
// quiescent.
type Lane struct {
	buf   []Event
	seq   uint64
	arena []Arg // chunked backing for ArgBuf; grown, never shrunk
}

// Emit stages an event on the lane.
func (l *Lane) Emit(ev Event) {
	ev.seq = l.seq
	l.seq++
	l.buf = append(l.buf, ev)
}

// argChunk is the arena growth quantum: one allocation per ~100 events
// instead of one per event on the barrier emit path.
const argChunk = 256

// ArgBuf carves an n-argument buffer from the lane's arena. Retained
// events keep their subslices valid forever: the arena only ever
// appends, and a chunk that fills up is abandoned to its events while
// a fresh one takes over. Single-producer like the lane itself.
func (l *Lane) ArgBuf(n int) []Arg {
	if len(l.arena)+n > cap(l.arena) {
		l.arena = make([]Arg, 0, max(argChunk, n))
	}
	l.arena = l.arena[:len(l.arena)+n]
	return l.arena[len(l.arena)-n : len(l.arena) : len(l.arena)]
}

// Tracer records the event stream of one machine — one trace "process",
// with one thread per vCPU plus one per device/actor track.
type Tracer struct {
	pid    int
	name   string
	ncpu   int
	tracks []string // track id → display name; 0..ncpu-1 are vCPUs
	lanes  []*Lane  // per-track staging buffers
	events []Event  // merged, deterministic (Clk, Track, seq) order
	drops  uint64
}

// NewTracer returns a standalone tracer (pid 0). Machines traced
// together in one file should come from a TraceSession instead, which
// assigns process ids in boot order.
func NewTracer(name string, ncpu int) *Tracer {
	t := &Tracer{name: name, ncpu: ncpu}
	for i := 0; i < ncpu; i++ {
		t.tracks = append(t.tracks, fmt.Sprintf("vCPU %d", i))
		t.lanes = append(t.lanes, &Lane{})
	}
	return t
}

// Track allocates (or finds) a named non-vCPU track — a device, the
// re-randomizer, the memory system — and returns its id.
func (t *Tracer) Track(name string) int {
	for i := t.ncpu; i < len(t.tracks); i++ {
		if t.tracks[i] == name {
			return i
		}
	}
	t.tracks = append(t.tracks, name)
	t.lanes = append(t.lanes, &Lane{})
	return len(t.tracks) - 1
}

// Lane returns track id's staging buffer.
func (t *Tracer) Lane(track int) *Lane { return t.lanes[track] }

// Emit stages an event on its track's lane.
func (t *Tracer) Emit(ev Event) { t.lanes[ev.Track].Emit(ev) }

// evCmp is the deterministic merge order: virtual clock, then track,
// then staging order within the emitting lane.
func evCmp(a, b Event) int {
	if a.Clk != b.Clk {
		if a.Clk < b.Clk {
			return -1
		}
		return 1
	}
	if a.Track != b.Track {
		return a.Track - b.Track
	}
	if a.seq != b.seq {
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

// Barrier merges every staged lane buffer into the retained stream in
// deterministic (Clk, Track, seq) order and clears the buffers. The
// engine calls it once per round with all vCPUs quiescent; events staged
// at one barrier always carry clocks at or past the previous barrier's,
// so batch-local sorting yields a globally ordered stream. The gather
// appends straight onto the retained stream and sorts the new tail in
// place; a typical round's tail (a couple of same-clock events gathered
// in track order) is already ordered, so the sort is usually skipped.
func (t *Tracer) Barrier() {
	start := len(t.events)
	for _, l := range t.lanes {
		if len(l.buf) > 0 {
			t.events = append(t.events, l.buf...)
			l.buf = l.buf[:0]
			l.seq = 0
		}
	}
	tail := t.events[start:]
	if len(tail) == 0 {
		return
	}
	for i := 1; i < len(tail); i++ {
		if evCmp(tail[i-1], tail[i]) > 0 {
			slices.SortStableFunc(tail, evCmp)
			break
		}
	}
	if len(t.events) > maxEventsPerMachine {
		t.drops += uint64(len(t.events) - maxEventsPerMachine)
		t.events = t.events[:maxEventsPerMachine]
	}
}

// Events returns the merged stream (tests and cross-mode comparisons).
func (t *Tracer) Events() []Event { return t.events }

// TraceSession collects the tracers of every machine booted during one
// observed run into a single Chrome trace_event file: one process per
// machine, pids in boot order. Tracer allocation is mutex-guarded
// (machine boots are serial under the observability contract, but the
// guard keeps misuse race-free); event emission stays lock-free on the
// per-machine lanes.
type TraceSession struct {
	mu       sync.Mutex
	machines []*Tracer
}

// Tracer allocates the trace process for the next booted machine.
func (s *TraceSession) Tracer(name string, ncpu int) *Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := NewTracer(name, ncpu)
	t.pid = len(s.machines)
	s.machines = append(s.machines, t)
	return t
}

// Machines returns the session's tracers in boot (pid) order.
func (s *TraceSession) Machines() []*Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Tracer(nil), s.machines...)
}

// WriteJSON renders the session as Chrome trace_event JSON ("ts" is in
// simulated cycles; Perfetto renders it as microseconds, which keeps
// relative durations exact). Output is hand-formatted so the same event
// stream always produces the same bytes.
func (s *TraceSession) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	machines := append([]*Tracer(nil), s.machines...)
	s.mu.Unlock()

	bw := bufio.NewWriter(w)
	var drops uint64
	for _, t := range machines {
		drops += t.drops
	}
	fmt.Fprintf(bw, "{\"otherData\":{\"clock\":\"virtual-cycles\",\"dropped\":%d},\"traceEvents\":[", drops)
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		bw.WriteString(line)
	}
	for _, t := range machines {
		emit(fmt.Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%s}}",
			t.pid, strconv.Quote(t.name)))
		for tid, tn := range t.tracks {
			emit(fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}}",
				t.pid, tid, strconv.Quote(tn)))
		}
	}
	for _, t := range machines {
		for i := range t.events {
			ev := &t.events[i]
			args := ""
			for j := range ev.Args {
				if j > 0 {
					args += ","
				}
				a := &ev.Args[j]
				if a.Num {
					args += strconv.Quote(a.Key) + ":" + strconv.FormatUint(a.U, 10)
				} else {
					args += strconv.Quote(a.Key) + ":" + a.Val
				}
			}
			if ev.Dur > 0 {
				emit(fmt.Sprintf("{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{%s}}",
					strconv.Quote(ev.Name), t.pid, ev.Track, ev.Clk, ev.Dur, args))
			} else {
				emit(fmt.Sprintf("{\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"args\":{%s}}",
					strconv.Quote(ev.Name), t.pid, ev.Track, ev.Clk, args))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
