package obs

// Cross-process trace propagation. A TraceContext is the serializable
// identity of one request: a 128-bit trace ID that stays constant for
// the request's whole life, plus the span ID of the caller's current
// span. It crosses process boundaries as a W3C-`traceparent`-style
// header ("00-<trace-id>-<parent-id>-01"), so the dwmserved client
// injects it, the server extracts it, and every span either side
// records lands in the same trace — one ID follows a request from the
// client retry loop through the queue, the anneal chains, and the WAL
// append (DESIGN.md §16).
//
// Trace IDs are never drawn from a clock or global RNG: DeriveTraceContext
// is a pure splitmix64 chain over a string key (typically the request's
// identity key), so the same request always carries the same trace ID —
// load-test runs are reproducible, and the determinism contract never
// sees a new entropy source. Like everything else in this package, trace
// propagation is inert: it decorates spans and responses and can never
// influence a placement.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// TraceContext identifies a request across process boundaries.
// The zero value is invalid, meaning "no trace".
type TraceContext struct {
	// TraceID is 32 lowercase hex digits (128 bits), not all zero.
	TraceID string
	// SpanID is the caller's current span — the remote parent of the
	// next span started under this context. Nonzero when valid.
	SpanID uint64
}

// Valid reports whether tc carries a usable trace identity: a
// well-formed nonzero trace ID and a nonzero parent span.
func (tc TraceContext) Valid() bool {
	if len(tc.TraceID) != 32 || tc.SpanID == 0 {
		return false
	}
	allZero := true
	for i := 0; i < len(tc.TraceID); i++ {
		c := tc.TraceID[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			allZero = false
		}
	}
	return !allZero
}

// TraceParent renders the wire form: version 00, the trace ID, the
// parent span ID as 16 hex digits, and the sampled flag — the W3C
// traceparent layout, so off-the-shelf tooling parses it.
func (tc TraceContext) TraceParent() string {
	return fmt.Sprintf("00-%s-%016x-01", tc.TraceID, tc.SpanID)
}

// ParseTraceParent decodes a traceparent header value. It accepts any
// version except the reserved ff, ignores unknown trailing fields, and
// rejects malformed or all-zero IDs (per the W3C grammar) by returning
// ok=false — an invalid header means "no trace", never an error the
// request path has to handle.
func ParseTraceParent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	version, traceID, parent := parts[0], parts[1], parts[2]
	if len(version) != 2 || !isHex(version) || strings.EqualFold(version, "ff") {
		return TraceContext{}, false
	}
	if len(traceID) != 32 || len(parent) != 16 {
		return TraceContext{}, false
	}
	span, err := strconv.ParseUint(parent, 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: strings.ToLower(traceID), SpanID: span}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// isHex reports whether s is entirely hex digits (either case).
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return len(s) > 0
}

// DeriveTraceContext derives a TraceContext deterministically from a
// string key: the same key always yields the same trace, distinct keys
// decorrelate through the splitmix chain. Callers use the request's
// identity key, so a resubmitted (idempotent) request carries the same
// trace ID as its original — the trace follows the computation, not the
// connection.
func DeriveTraceContext(key string) TraceContext {
	h := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(key); i++ {
		h = stats.Mix64(h ^ uint64(key[i]))
	}
	hi, lo := stats.Mix64(h+1), stats.Mix64(h+2)
	if hi == 0 && lo == 0 {
		lo = 1
	}
	span := stats.Mix64(h + 3)
	if span == 0 {
		span = 1
	}
	return TraceContext{TraceID: fmt.Sprintf("%016x%016x", hi, lo), SpanID: span}
}

// traceCtxKey carries the TraceContext through a context.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc. An invalid tc returns
// ctx unchanged, so callers can thread parse results unconditionally.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the TraceContext from ctx, ok=false when
// none is attached.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}
