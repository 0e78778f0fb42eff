package obs

import (
	"context"
	"runtime/debug"
)

// BuildInfoLabels returns build metadata for the build-info gauge: the
// main module version and Go toolchain, plus the VCS revision and commit
// time when the build was stamped with them.
func BuildInfoLabels() map[string]string {
	labels := map[string]string{"go_version": "unknown", "version": "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return labels
	}
	if bi.GoVersion != "" {
		labels["go_version"] = bi.GoVersion
	}
	if bi.Main.Version != "" {
		labels["version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			labels["revision"] = s.Value
		case "vcs.time":
			labels["vcs_time"] = s.Value
		}
	}
	return labels
}

// spanCtxKey carries a SpanContext through a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc, for HTTP clients to inject the
// traceparent header on outgoing requests.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFromContext extracts the span context placed by
// ContextWithSpan, reporting whether one was present.
func SpanContextFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}
