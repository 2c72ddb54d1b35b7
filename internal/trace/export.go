package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"dumbnet/internal/packet"
)

// Chrome trace_event export. The file loads in chrome://tracing and
// https://ui.perfetto.dev; sim-time nanoseconds become the format's
// microsecond `ts` (written as <µs>.<ns remainder> so no precision is
// lost). Every event carries the raw record in `args`, which makes the
// export lossless: ReadChrome reconstructs the exact []Record, and the
// whole pipeline is deterministic — the same records always serialize to
// the same bytes, which is what the same-seed reproducibility test pins.
//
// Track layout: one process per record family (packets, control plane,
// recovery, scenario), switch-side events on a per-switch thread, host-side
// events on a per-host thread.

// Process IDs for the trace_event "pid" field.
const (
	pidPackets  = 1
	pidControl  = 2
	pidRecovery = 3
	pidScenario = 4
)

// chromeArgs embeds the full Record in each event so the export is
// lossless. Field names are short on purpose: a busy trace has hundreds of
// thousands of events.
type chromeArgs struct {
	Kind  string `json:"k"`
	Op    string `json:"op,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	Src   string `json:"src,omitempty"`
	Dst   string `json:"dst,omitempty"`
	Sw    uint32 `json:"sw,omitempty"`
	Sw2   uint32 `json:"sw2,omitempty"`
	Port  uint16 `json:"port"`
	Up    bool   `json:"up,omitempty"`
	AtNs  int64  `json:"at_ns"`
	DurNs int64  `json:"dur_ns,omitempty"`
}

type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   json.RawMessage `json:"ts"`
	Dur  json.RawMessage `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  uint64          `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args *chromeArgs     `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Pid  int    `json:"pid"`
	Tid  uint64 `json:"tid,omitempty"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// usec renders sim-time nanoseconds as trace_event microseconds without
// losing the sub-microsecond digits (and without float formatting, so the
// bytes are stable).
func usec(ns int64) json.RawMessage {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	if ns%1000 == 0 {
		return json.RawMessage(fmt.Sprintf("%s%d", neg, ns/1000))
	}
	return json.RawMessage(fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000))
}

// macTid derives a stable numeric thread ID from a host MAC (its low five
// bytes; byte 0 is the constant locally-administered prefix).
func macTid(m packet.MAC) uint64 {
	return m.Uint64() & (1<<40 - 1)
}

// eventFor maps one record to its trace_event representation.
func eventFor(rec *Record) chromeEvent {
	args := &chromeArgs{
		Kind: rec.Kind.String(), Op: rec.OpString(), Seq: rec.Seq,
		Sw: uint32(rec.Sw), Sw2: uint32(rec.Sw2), Port: uint16(rec.Port),
		Up: rec.Up, AtNs: rec.At, DurNs: rec.Dur,
	}
	if !rec.Src.IsZero() {
		args.Src = rec.Src.String()
	}
	if !rec.Dst.IsZero() {
		args.Dst = rec.Dst.String()
	}
	ev := chromeEvent{Ts: usec(rec.At), Args: args}
	switch rec.Kind {
	case KindHop:
		ev.Name = fmt.Sprintf("hop %s→%s tag=%d", rec.Src, rec.Dst, rec.Port)
		ev.Ph = "X"
		ev.Dur = usec(rec.Dur)
		ev.Pid, ev.Tid = pidPackets, uint64(rec.Sw)
	case KindDrop:
		ev.Name = "drop " + rec.OpString()
		ev.Ph, ev.S = "i", "p"
		ev.Pid, ev.Tid = pidPackets, uint64(rec.Sw)
	case KindCtrl:
		ev.Name = rec.OpString()
		ev.Ph, ev.S = "i", "p"
		ev.Pid, ev.Tid = pidControl, macTid(rec.Src)
	case KindRecovery:
		ev.Name = rec.OpString()
		ev.Ph, ev.S = "i", "p"
		ev.Pid = pidRecovery
		if rec.Src.IsZero() {
			ev.Tid = uint64(rec.Sw)
		} else {
			ev.Tid = macTid(rec.Src)
		}
	case KindScenario:
		ev.Name = "chaos " + rec.OpString()
		ev.Ph, ev.S = "i", "g"
		ev.Pid, ev.Tid = pidScenario, 1
	default:
		ev.Name = "?"
		ev.Ph, ev.S = "i", "t"
		ev.Pid, ev.Tid = pidScenario, 1
	}
	return ev
}

// WriteChrome writes records as a Chrome trace_event JSON object. The
// output is deterministic: identical records yield identical bytes.
func WriteChrome(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(data)
		return err
	}

	// Process/thread name metadata first, in fixed order. Threads are named
	// only for pids whose tids are otherwise opaque (hosts).
	for _, m := range []struct {
		pid  int
		name string
	}{
		{pidPackets, "packets"},
		{pidControl, "control-plane"},
		{pidRecovery, "recovery"},
		{pidScenario, "chaos"},
	} {
		meta := chromeMeta{Name: "process_name", Ph: "M", Pid: m.pid}
		meta.Args.Name = m.name
		if err := emit(meta); err != nil {
			return err
		}
	}
	hostTids := map[uint64]packet.MAC{}
	for i := range recs {
		rec := &recs[i]
		if rec.Kind == KindCtrl || (rec.Kind == KindRecovery && !rec.Src.IsZero()) {
			hostTids[macTid(rec.Src)] = rec.Src
		}
	}
	tids := make([]uint64, 0, len(hostTids))
	for tid := range hostTids {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	for _, tid := range tids {
		for _, pid := range []int{pidControl, pidRecovery} {
			meta := chromeMeta{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid}
			meta.Args.Name = "host " + hostTids[tid].String()
			if err := emit(meta); err != nil {
				return err
			}
		}
	}

	for i := range recs {
		if err := emit(eventFor(&recs[i])); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// parseMAC inverts packet.MAC.String(); the empty string is the zero MAC.
func parseMAC(s string) (packet.MAC, error) {
	var m packet.MAC
	if s == "" {
		return m, nil
	}
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return m, fmt.Errorf("trace: bad MAC %q", s)
	}
	return m, nil
}

// kindFromString inverts Kind.String.
func kindFromString(s string) (Kind, bool) {
	for k := KindHop; k <= KindScenario; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// opFromString inverts OpString for the given kind.
func opFromString(k Kind, s string) uint8 {
	probe := Record{Kind: k}
	for op := 1; op < 32; op++ {
		probe.Op = uint8(op)
		if probe.OpString() == s {
			return uint8(op)
		}
	}
	return 0
}

// ReadChrome reconstructs the records from a WriteChrome export (via the
// lossless `args` payloads; metadata events are skipped).
func ReadChrome(data []byte) ([]Record, error) {
	var file struct {
		TraceEvents []struct {
			Ph   string      `json:"ph"`
			Args *chromeArgs `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("trace: not a trace_event file: %w", err)
	}
	var recs []Record
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" || ev.Args == nil || ev.Args.Kind == "" {
			continue
		}
		kind, ok := kindFromString(ev.Args.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: unknown record kind %q", ev.Args.Kind)
		}
		rec := Record{
			At: ev.Args.AtNs, Dur: ev.Args.DurNs, Seq: ev.Args.Seq,
			Sw: packet.SwitchID(ev.Args.Sw), Sw2: packet.SwitchID(ev.Args.Sw2),
			Kind: kind, Port: packet.Tag(ev.Args.Port), Up: ev.Args.Up,
		}
		if kind != KindHop {
			rec.Op = opFromString(kind, ev.Args.Op)
		}
		var err error
		if rec.Src, err = parseMAC(ev.Args.Src); err != nil {
			return nil, err
		}
		if rec.Dst, err = parseMAC(ev.Args.Dst); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// simTime renders a nanosecond timestamp for the human timeline.
func simTime(ns int64) string {
	return fmt.Sprintf("%12.6fms", float64(ns)/1e6)
}

// line renders one record for the human timeline.
func line(rec *Record) string {
	switch rec.Kind {
	case KindHop:
		return fmt.Sprintf("%s  hop       sw%-3d tag=%-3d %s→%s (%v)",
			simTime(rec.At), rec.Sw, rec.Port, rec.Src, rec.Dst, time.Duration(rec.Dur))
	case KindDrop:
		at := fmt.Sprintf("sw%d", rec.Sw)
		if rec.Sw == 0 {
			at = "link"
		}
		return fmt.Sprintf("%s  drop      %-5s cause=%s %s→%s",
			simTime(rec.At), at, rec.OpString(), rec.Src, rec.Dst)
	case KindCtrl:
		return fmt.Sprintf("%s  ctrl      %-17s host=%s peer=%s seq=%d",
			simTime(rec.At), rec.OpString(), rec.Src, rec.Dst, rec.Seq)
	case KindRecovery:
		state := "down"
		if rec.Up {
			state = "up"
		}
		who := fmt.Sprintf("sw%d/port%d %s", rec.Sw, rec.Port, state)
		if !rec.Src.IsZero() {
			who += " host=" + rec.Src.String()
		}
		if !rec.Dst.IsZero() {
			who += " dst=" + rec.Dst.String()
		}
		return fmt.Sprintf("%s  recovery  %-12s %s", simTime(rec.At), rec.OpString(), who)
	case KindScenario:
		return fmt.Sprintf("%s  scenario  %-14s sw%d sw%d",
			simTime(rec.At), rec.OpString(), rec.Sw, rec.Sw2)
	}
	return simTime(rec.At) + "  ?"
}

// WriteTimeline writes the human-readable chronological timeline.
func WriteTimeline(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for i := range recs {
		if _, err := bw.WriteString(line(&recs[i]) + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
