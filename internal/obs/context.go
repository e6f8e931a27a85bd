package obs

// Request-scoped plumbing: the serving layer assigns every request an ID
// and threads it through context.Context, so the core pipeline tags the
// request's span tree with it. A context without one yields "".

import "context"

type ctxKey int

const ctxKeyRequestID ctxKey = 0

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom returns the request ID attached by WithRequestID, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}
