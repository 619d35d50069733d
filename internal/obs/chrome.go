package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Chrome trace-event export: the JSON-object form ({"traceEvents":
// [...]}) loadable by chrome://tracing and Perfetto. Each scope renders
// as one process (pid), each track as one thread (tid) with metadata
// events naming both; instant records become "i" phase events and
// op spans become "X" complete events. Timestamps are microseconds
// (floats), converted from the simulator's nanosecond virtual clock.

type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid,omitempty"`
	Ts    *float64       `json:"ts,omitempty"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func f64(v float64) *float64 { return &v }

func (rec *Record) chromeEvent(pid, tid int) chromeEvent {
	ev := chromeEvent{
		Name: rec.Kind.String(),
		Pid:  pid,
		Tid:  tid,
		Ts:   f64(rec.At.Micros()),
		Cat:  category(rec.Kind),
	}
	switch rec.Kind {
	case KindOpQueue, KindOpRun:
		ev.Ph = "X"
		ev.Dur = f64(rec.Dur.Micros())
		if rec.Label != "" {
			ev.Name = rec.Label + "/" + rec.Kind.String()
		}
		ev.Args = map[string]any{"group": rec.Group}
	case KindEventFired, KindEventCancelled:
		ev.Ph = "i"
		ev.Scope = "t"
	default:
		ev.Ph = "i"
		ev.Scope = "t"
		ev.Args = map[string]any{"src": rec.Src, "dst": rec.Dst, "group": rec.Group}
		if rec.Label != "" {
			ev.Args["kind"] = rec.Label
		}
		if rec.Kind == KindPktDrop {
			ev.Name = "pkt-drop/" + rec.Reason.String()
		}
	}
	return ev
}

func category(k Kind) string {
	switch k {
	case KindPktInject, KindPktHop, KindPktDeliver, KindPktDrop:
		return "wire"
	case KindEventFired, KindEventCancelled:
		return "engine"
	case KindOpQueue, KindOpRun, KindOpTimeout, KindEvict, KindRetry:
		return "op"
	default:
		return "nic"
	}
}

// WriteChrome streams the tracer's retained records as Chrome
// trace-event JSON. Call it only after the traced simulations have
// finished. Scopes are numbered (pid) and written in name order, scopes
// of one name in creation order, so concurrent sweeps that create their
// scopes in a racy order still write the same file.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	scopes := tr.Scopes()
	slices.SortStableFunc(scopes, func(a, b *Scope) int { return strings.Compare(a.name, b.name) })
	for i, sc := range scopes {
		pid := i + 1
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": sc.name}}); err != nil {
			return err
		}
		for _, t := range sc.allTracks() {
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: t.tid,
				Args: map[string]any{"name": t.name}}); err != nil {
				return err
			}
			recs := t.ring.snapshot()
			for i := range recs {
				if err := emit(recs[i].chromeEvent(pid, t.tid)); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace checks data against the Chrome trace-event
// schema: a top-level traceEvents array whose members each carry a
// phase and pid, with "X" events carrying ts and dur, and "i" events
// carrying ts and an instant scope. It returns the event count.
func ValidateChromeTrace(data []byte) (int, error) {
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		return 0, fmt.Errorf("obs: trace is not a JSON object: %w", err)
	}
	if top.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, raw := range top.TraceEvents {
		var ev struct {
			Name  *string  `json:"name"`
			Ph    *string  `json:"ph"`
			Pid   *int     `json:"pid"`
			Ts    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
			Scope *string  `json:"s"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return 0, fmt.Errorf("obs: traceEvents[%d]: %w", i, err)
		}
		if ev.Ph == nil || *ev.Ph == "" {
			return 0, fmt.Errorf("obs: traceEvents[%d]: missing ph", i)
		}
		if ev.Pid == nil {
			return 0, fmt.Errorf("obs: traceEvents[%d]: missing pid", i)
		}
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("obs: traceEvents[%d]: missing name", i)
		}
		switch *ev.Ph {
		case "X":
			if ev.Ts == nil || ev.Dur == nil {
				return 0, fmt.Errorf("obs: traceEvents[%d]: X event needs ts and dur", i)
			}
		case "i", "I":
			if ev.Ts == nil {
				return 0, fmt.Errorf("obs: traceEvents[%d]: instant event needs ts", i)
			}
			if ev.Scope != nil {
				switch *ev.Scope {
				case "t", "p", "g":
				default:
					return 0, fmt.Errorf("obs: traceEvents[%d]: instant scope %q", i, *ev.Scope)
				}
			}
		case "M":
		default:
			if ev.Ts == nil {
				return 0, fmt.Errorf("obs: traceEvents[%d]: ph %q needs ts", i, *ev.Ph)
			}
		}
	}
	return len(top.TraceEvents), nil
}
