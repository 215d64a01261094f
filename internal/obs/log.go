package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// Nop is a logger that discards everything; used wherever a nil check
// would otherwise litter the call sites. (slog.DiscardHandler is Go
// 1.24+; this repo still builds on 1.23.)
var Nop = slog.New(nopHandler{})

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// ParseLevel maps the -loglevel flag onto a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
}

// NewLogger builds a structured logger writing to w. format is "text"
// or "json" (the -logformat flag).
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (text, json)", format)
}

// EventCounter is a slog.Handler middleware that counts records by
// their "event" attribute value while forwarding to the wrapped
// handler. The serving tests use it to assert that each
// quarantine/breaker transition emits exactly one structured event.
type EventCounter struct {
	inner slog.Handler
	tally *eventTally // shared across WithAttrs/WithGroup clones
}

type eventTally struct {
	mu     sync.Mutex
	counts map[string]int
}

// NewEventCounter wraps inner (use obs.Nop.Handler() to only count).
func NewEventCounter(inner slog.Handler) *EventCounter {
	return &EventCounter{inner: inner, tally: &eventTally{counts: make(map[string]int)}}
}

// Enabled always returns true so events are counted even below the
// wrapped handler's level; Handle forwards only what inner accepts.
func (h *EventCounter) Enabled(context.Context, slog.Level) bool { return true }

func (h *EventCounter) Handle(ctx context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "event" {
			return true
		}
		h.tally.mu.Lock()
		h.tally.counts[a.Value.String()]++
		h.tally.mu.Unlock()
		return false
	})
	if h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

// WithAttrs and WithGroup clone the forwarding handler but share the
// tally; the serving layer always puts "event" on the record itself.
func (h *EventCounter) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &EventCounter{inner: h.inner.WithAttrs(attrs), tally: h.tally}
}

func (h *EventCounter) WithGroup(name string) slog.Handler {
	return &EventCounter{inner: h.inner.WithGroup(name), tally: h.tally}
}

// Count reports how many records carried event=name.
func (h *EventCounter) Count(name string) int {
	h.tally.mu.Lock()
	defer h.tally.mu.Unlock()
	return h.tally.counts[name]
}
