// Package trace serializes recorded executions and their named nonatomic
// events to JSON (interoperable, human-inspectable) and gob (compact), and
// provides summary statistics. This is the persistence layer behind the
// cmd/tracegen, cmd/relcheck and cmd/syncmon tools: an application records a
// trace once and analyzes it offline, which is exactly the paper's Problem 4
// setting ("given a recorded trace of a distributed computation ...").
package trace

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/vclock"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// EventRec is a serialized event reference.
type EventRec struct {
	Proc int `json:"proc"`
	Pos  int `json:"pos"`
}

// MessageRec is a serialized message edge.
type MessageRec struct {
	From EventRec `json:"from"`
	To   EventRec `json:"to"`
}

// IntervalRec is a serialized named nonatomic event.
type IntervalRec struct {
	Name   string     `json:"name"`
	Events []EventRec `json:"events"`
}

// File is the serializable form of an execution plus its named intervals
// and, optionally, per-event physical timestamps (see internal/rt).
type File struct {
	Version   int           `json:"version"`
	Counts    []int         `json:"counts"` // real events per process
	Messages  []MessageRec  `json:"messages"`
	Intervals []IntervalRec `json:"intervals,omitempty"`
	// TimesNS holds each process's event timestamps (nanoseconds) in
	// position order; empty when the trace is untimed.
	TimesNS [][]int64 `json:"times_ns,omitempty"`
}

// Errors returned by the decoding path.
var (
	ErrVersion     = errors.New("trace: unsupported format version")
	ErrNoInterval  = errors.New("trace: no such named interval")
	ErrDupInterval = errors.New("trace: duplicate interval name")
	ErrTooLarge    = errors.New("trace: event count exceeds MaxEvents")
)

// MaxEvents bounds the total event count a decoded file may claim. The poset
// builder materializes O(procs × events) vector-clock state, so a corrupt
// (or hostile) file whose counts claim billions of events would stall the
// loading tools for minutes before failing; ~16.7M events is far beyond any
// real trace. The bound applies only to decoded claims — it is checked
// against the Counts header, before any per-event allocation.
const MaxEvents = 1 << 24

// New converts an execution and an optional set of named nonatomic events to
// the serializable form. Interval names are emitted sorted for deterministic
// output.
func New(ex *poset.Execution, named map[string][]poset.EventID) *File {
	f := &File{Version: FormatVersion}
	for i := 0; i < ex.NumProcs(); i++ {
		f.Counts = append(f.Counts, ex.NumReal(i))
	}
	for _, m := range ex.Messages() {
		f.Messages = append(f.Messages, MessageRec{
			From: EventRec{Proc: m.From.Proc, Pos: m.From.Pos},
			To:   EventRec{Proc: m.To.Proc, Pos: m.To.Pos},
		})
	}
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec := IntervalRec{Name: name}
		for _, e := range named[name] {
			rec.Events = append(rec.Events, EventRec{Proc: e.Proc, Pos: e.Pos})
		}
		f.Intervals = append(f.Intervals, rec)
	}
	return f
}

// Execution rebuilds and validates the poset execution. All structural
// errors of the poset builder (dangling events, dummy endpoints, causal
// cycles) surface here.
func (f *File) Execution() (*poset.Execution, error) {
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, f.Version, FormatVersion)
	}
	total := 0
	for p, c := range f.Counts {
		if c < 0 {
			return nil, fmt.Errorf("trace: negative event count %d on process %d", c, p)
		}
		if c > MaxEvents || total+c > MaxEvents {
			return nil, fmt.Errorf("%w: %d processes claim more than %d events", ErrTooLarge, len(f.Counts), MaxEvents)
		}
		total += c
	}
	b := poset.NewBuilder(len(f.Counts))
	for p, c := range f.Counts {
		if c > 0 {
			b.AppendN(p, c)
		}
	}
	b.Grow(len(f.Messages))
	for _, m := range f.Messages {
		if err := b.Message(
			poset.EventID{Proc: m.From.Proc, Pos: m.From.Pos},
			poset.EventID{Proc: m.To.Proc, Pos: m.To.Pos},
		); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// IntervalNames returns the names of the stored intervals in file order.
func (f *File) IntervalNames() []string {
	out := make([]string, 0, len(f.Intervals))
	for _, rec := range f.Intervals {
		out = append(out, rec.Name)
	}
	return out
}

// Interval materializes the named interval against ex (which must be the
// execution rebuilt from this file).
func (f *File) Interval(ex *poset.Execution, name string) (*interval.Interval, error) {
	for _, rec := range f.Intervals {
		if rec.Name == name {
			return interval.New(ex, rec.appendEvents(nil))
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoInterval, name)
}

// AllIntervals materializes every stored interval, keyed by name.
func (f *File) AllIntervals(ex *poset.Execution) (map[string]*interval.Interval, error) {
	out := make(map[string]*interval.Interval, len(f.Intervals))
	var events []poset.EventID // reused: interval.New copies its input
	for _, rec := range f.Intervals {
		if _, dup := out[rec.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupInterval, rec.Name)
		}
		events = rec.appendEvents(events[:0])
		iv, err := interval.New(ex, events)
		if err != nil {
			return nil, err
		}
		out[rec.Name] = iv
	}
	return out, nil
}

// appendEvents appends the record's events to dst as EventIDs.
func (rec *IntervalRec) appendEvents(dst []poset.EventID) []poset.EventID {
	for _, e := range rec.Events {
		dst = append(dst, poset.EventID{Proc: e.Proc, Pos: e.Pos})
	}
	return dst
}

// WriteJSON writes the file as indented JSON.
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON decodes a JSON trace. It reads r to the end and decodes the
// first JSON value in one pass over the bytes, accepting exactly the inputs
// json.Decoder.Decode accepts into a File and yielding the same File; bytes
// after the value are ignored.
func ReadJSON(r io.Reader) (*File, error) {
	var buf bytes.Buffer
	buf.Grow(sizeHint(r) + bytes.MinRead) // one read, no regrowth, when r knows its size
	_, rerr := buf.ReadFrom(r)
	f, err := decodeJSON(buf.Bytes())
	if err != nil && rerr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		err = rerr // the value was cut short by the failed read
	}
	if err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	return f, nil
}

// sizeHint returns how many bytes r holds when it can tell: an in-memory
// reader reports what is left, a regular file its size. Otherwise 0.
func sizeHint(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() && int64(int(fi.Size())) == fi.Size() {
			return int(fi.Size())
		}
	}
	return 0
}

// WriteGob writes the file in gob encoding.
func (f *File) WriteGob(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f)
}

// ReadGob decodes a gob trace.
func ReadGob(r io.Reader) (*File, error) {
	var f File
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decoding gob: %w", err)
	}
	return &f, nil
}

// Save writes the trace to path, choosing the encoding by extension:
// ".json" for JSON, anything else for gob.
func (f *File) Save(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	if filepath.Ext(path) == ".json" {
		return f.WriteJSON(w)
	}
	return f.WriteGob(w)
}

// Load reads a trace from path, choosing the decoding by extension.
func Load(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if filepath.Ext(path) == ".json" {
		return ReadJSON(r)
	}
	return ReadGob(r)
}

// SetTiming attaches per-event physical timestamps to the file.
func (f *File) SetTiming(tm *rt.Timing) {
	times := tm.Times()
	f.TimesNS = make([][]int64, len(times))
	for p, row := range times {
		f.TimesNS[p] = make([]int64, len(row))
		for i, d := range row {
			f.TimesNS[p][i] = int64(d)
		}
	}
}

// Timing materializes and validates the stored timestamps against ex (the
// execution rebuilt from this file). It errors when the trace is untimed.
func (f *File) Timing(ex *poset.Execution) (*rt.Timing, error) {
	if len(f.TimesNS) == 0 {
		return nil, errors.New("trace: no timestamps stored")
	}
	times := make([][]time.Duration, len(f.TimesNS))
	for p, row := range f.TimesNS {
		times[p] = make([]time.Duration, len(row))
		for i, ns := range row {
			times[p][i] = time.Duration(ns)
		}
	}
	return rt.New(ex, times)
}

// Stats summarizes a trace's causal structure beyond the raw counts.
type Stats struct {
	Procs    int
	Events   int
	Messages int
	// OrderedPairs is the number of ordered pairs (a ≺ b) among distinct
	// real events; Density is that count divided by n(n-1)/2 (the pair
	// count of a total order), i.e. 1.0 for a totally ordered execution
	// and → 0 for fully concurrent ones.
	OrderedPairs int
	Density      float64
}

// ComputeStats derives causal statistics using the timestamp structure
// (O(|E|²·?) pairwise over per-node latest vectors — intended for reporting,
// not hot paths).
func ComputeStats(ex *poset.Execution) Stats {
	st := Stats{
		Procs:    ex.NumProcs(),
		Events:   ex.NumEvents(),
		Messages: len(ex.Messages()),
	}
	clk := vclock.New(ex)
	events := ex.RealEvents()
	for _, a := range events {
		for _, b := range events {
			if a != b && clk.Precedes(a, b) {
				st.OrderedPairs++
			}
		}
	}
	if n := len(events); n > 1 {
		st.Density = float64(st.OrderedPairs) / (float64(n*(n-1)) / 2)
	}
	return st
}
